// The shared scenario runner: one ScenarioQuery in, one rendered experiment
// out. Both surfaces call it — gpucomm_cli for a plain run (no telemetry
// printing flags) and the --serve loop for every query — so a server
// response's manifest is byte-identical to the standalone --metrics-out
// artifact by construction, not by parallel maintenance of two code paths.
//
// The runner replicates the CLI driver exactly: same cluster/communicator
// construction order, same plan() calls after the runs, same profiler
// gating (one unmeasured profiled iteration per size when a manifest is
// wanted in coupled mode). Anything that consumes cluster RNG therefore
// consumes it in the same order, which is what the byte-for-byte contract
// rests on.
//
// ServerCaches holds the cross-query caches (docs/SERVER.md): whole
// responses and constructed topologies. Both are exact-compare and hold
// values bit-identical to recomputation, so the determinism contract
// survives any cache state: warm answers equal cold answers byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/topo_snapshot.hpp"
#include "gpucomm/comm/communicator.hpp"
#include "gpucomm/fault/fault_schedule.hpp"
#include "gpucomm/serve/cache.hpp"
#include "gpucomm/serve/query.hpp"

namespace gpucomm::serve {

/// Name -> Mechanism; throws std::invalid_argument on unknown names (the
/// query/CLI parsers validate first).
Mechanism mechanism_of(const std::string& name);
/// Name -> CollectiveOp; throws std::invalid_argument on unknown names.
CollectiveOp op_of(const std::string& name);
/// Construct the mechanism's communicator over the first `gpus` ranks.
std::unique_ptr<Communicator> make_comm(Mechanism m, Cluster& c, int gpus,
                                        const CommOptions& opt);
/// One timed iteration of `op` on `comm` (pingpong reports half round-trip).
SimTime run_op(Communicator& comm, const std::string& op, Bytes b);
/// Resolve a --faults/"faults" value: a readable file is loaded as a
/// schedule file; anything else is an inline spec with ';' for newlines.
std::optional<fault::FaultSchedule> resolve_faults(const std::string& spec,
                                                   std::string& error);
/// Node count for a scenario: the explicit override when given, else the
/// smallest count hosting `gpus` ranks. Throws std::invalid_argument when
/// the override cannot host them.
int resolved_nodes(const SystemConfig& cfg, int gpus, int nodes_override);

/// Everything a finished scenario renders: the stdout header + table the
/// CLI prints, and the manifest in both artifact (pretty) and JSON-lines
/// (compact) form. Immutable once built; the response cache shares it.
struct ScenarioOutput {
  std::string header;            // "# leonardo mpi allreduce, ..." line
  std::string table;             // aligned results table text
  std::string manifest_pretty;   // --metrics-out artifact bytes
  std::string manifest_compact;  // same document, single line
  std::size_t cost_bytes() const {
    return sizeof(ScenarioOutput) + header.size() + table.size() +
           manifest_pretty.size() + manifest_compact.size();
  }
};

/// Cross-query caches, budgeted from --serve-cache-mb: 9/10 of the budget
/// for whole responses, 1/10 for constructed topologies.
class ServerCaches {
 public:
  explicit ServerCaches(std::size_t total_bytes)
      : topologies("topology", total_bytes / 10),
        responses("responses", total_bytes - total_bytes / 10) {}

  ExactCache<TopologySnapshot> topologies;
  ExactCache<ScenarioOutput> responses;

  std::vector<CacheStats> stats() const { return {topologies.stats(), responses.stats()}; }
};

/// Run one scenario. `caches` may be nullptr (no reuse, e.g. a one-shot CLI
/// run). `want_manifest` controls the coupled-mode profiler gating exactly
/// as the CLI's --metrics-out does: when true, one extra unmeasured
/// profiled iteration runs per size and the manifest carries the profile
/// section; the server always passes true. Returns nullptr with a one-line
/// `error` on invalid fault specs or construction failures.
std::shared_ptr<const ScenarioOutput> run_scenario(const ScenarioQuery& q,
                                                   ServerCaches* caches,
                                                   bool want_manifest,
                                                   std::string& error);

}  // namespace gpucomm::serve
