// Scenario queries: the server's unit of work.
//
// A query is one JSON object per line naming a complete experiment — the
// same parameter space as the gpucomm_cli scenario flags (system, topology
// overrides, collective, size sweep, mechanism, fault schedule, noise,
// seed). Parsing is strict in the same way the CLI parser is: an unknown
// field, a wrong type, an out-of-vocabulary name, or an out-of-range value
// fails with a one-line message, never a silently-coerced experiment. The
// vocabulary checks are the exact cli:: helpers, so the two surfaces cannot
// drift apart.
//
// canonical_key() renders every semantic field (everything except the echo
// id and the server-side metrics_out path) into one unambiguous string —
// the exact-compare cache key for the response cache.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "gpucomm/harness/cli_args.hpp"
#include "gpucomm/serve/json_value.hpp"

namespace gpucomm::serve {

struct ScenarioQuery {
  /// Echoed verbatim in the response line; not part of the cache key.
  std::int64_t id = 0;
  // Scenario parameters; defaults match cli::CliArgs so the same unspecified
  // experiment means the same thing on both surfaces.
  std::string system = "leonardo";
  std::string op = "pingpong";
  std::string mechanism = "mpi";
  int gpus = 2;
  Bytes min_bytes = 1;
  Bytes max_bytes = 1_GiB;
  MemSpace space = MemSpace::kDevice;
  bool tuned = true;
  int service_level = 0;
  Placement placement = Placement::kPacked;
  int iters = 0;  // 0 = auto per size
  std::uint64_t seed = 42;
  /// Fault schedule path or inline spec (';' separates events). Coupled
  /// harness only, as with the CLI.
  std::string faults;
  /// false models a drained system (ClusterOptions::enable_noise).
  bool noise = true;
  /// Node-count override; 0 derives the count from gpus.
  int nodes = 0;
  /// "cells" runs every (size, rep) as an independent simulation with a
  /// derived seed — the deterministic cell harness; "coupled" keeps one
  /// cluster and one noise stream across the sweep. Matches the manifest's
  /// harness field.
  bool cells = false;
  /// Also write the pretty manifest to this server-side path; not part of
  /// the cache key (the artifact is identical either way).
  std::string metrics_out;
  /// Per-query wall-clock budget in milliseconds, overriding the server's
  /// --serve-deadline-ms default (0 = use the default). The budget covers
  /// queue wait; an expired query answers {"ok":false,"error":"deadline"}.
  /// Like id and metrics_out this is delivery plumbing, NOT part of the
  /// cache keys — the answer bytes do not depend on it.
  int deadline_ms = 0;

  /// Exact-compare key for the full response: every semantic field above
  /// except id and metrics_out.
  std::string canonical_key() const;
};

/// Parse one query object. Strict: unknown fields, wrong types, unknown
/// system/op/mechanism/placement/harness names, out-of-range values, and
/// faults-with-cells all fail with a one-line message in `error`.
std::optional<ScenarioQuery> parse_query(const JsonValue& v, std::string& error);

/// The query equivalent to a CLI invocation (cells <- jobs_given); used to
/// route every gpucomm_cli run through the scenario runner the server uses,
/// which is what makes server responses byte-identical to standalone
/// --metrics-out artifacts.
ScenarioQuery query_from_cli(const cli::CliArgs& a);

}  // namespace gpucomm::serve
