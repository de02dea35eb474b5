#include "gpucomm/harness/cli_args.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "gpucomm/systems/registry.hpp"

namespace gpucomm::cli {

namespace {

bool parse_int(const std::string& s, long long min, long long max, long long& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (v < min || v > max) return false;
  out = v;
  return true;
}

const char* const kOps[] = {"pingpong",  "alltoall",  "allreduce",
                            "broadcast", "allgather", "reducescatter"};
const char* const kMechanisms[] = {"staging", "devcopy", "ccl", "mpi"};

template <typename Names>
bool known(const Names& names, const std::string& value) {
  return std::find(std::begin(names), std::end(names), value) != std::end(names);
}

}  // namespace

bool known_op(const std::string& name) { return known(kOps, name); }

bool known_mechanism(const std::string& name) { return known(kMechanisms, name); }

bool parse_placement_name(const std::string& name, Placement& out) {
  if (name == "packed") {
    out = Placement::kPacked;
  } else if (name == "switches") {
    out = Placement::kScatterSwitches;
  } else if (name == "groups") {
    out = Placement::kScatterGroups;
  } else {
    return false;
  }
  return true;
}

std::vector<Bytes> sweep_sizes(Bytes min_bytes, Bytes max_bytes) {
  std::vector<Bytes> sizes;
  for (Bytes b = min_bytes; b <= max_bytes; b *= 4) {
    sizes.push_back(b);
    if (b == 0 || b > max_bytes / 4) break;  // the next step would pass max (or wrap)
  }
  return sizes;
}

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kPacked: return "packed";
    case Placement::kScatterSwitches: return "switches";
    case Placement::kScatterGroups: return "groups";
  }
  return "?";
}

std::optional<CliArgs> parse_cli(int argc, const char* const* argv, std::string& error) {
  CliArgs a;
  const auto fail = [&error](std::string msg) {
    error = std::move(msg);
    return std::nullopt;
  };
  // First scenario (non-serve, non-help) flag seen, for the --serve
  // exclusivity diagnostic: in serve mode every scenario parameter arrives
  // per query, so a scenario flag on the command line is a usage error.
  std::string scenario_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--serve", 0) != 0 && flag != "--help" && flag != "-h" &&
        scenario_flag.empty()) {
      scenario_flag = flag;
    }
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Flags taking a value all funnel through `need` so a trailing
    // "--gpus" with nothing after it is a parse error, not a crash.
    const auto need = [&](std::string& out) {
      const char* v = value();
      if (v == nullptr) return false;
      out = v;
      return true;
    };
    std::string v;
    long long n = 0;
    if (flag == "--help" || flag == "-h") {
      a.help = true;
      return a;
    } else if (flag == "--system") {
      if (!need(a.system)) return fail(flag + " requires a system name");
      if (!known(all_system_names(), a.system)) {
        return fail("unknown system '" + a.system + "'");
      }
    } else if (flag == "--op") {
      if (!need(a.op)) return fail(flag + " requires an operation name");
      if (!known(kOps, a.op)) return fail("unknown op '" + a.op + "'");
    } else if (flag == "--mechanism") {
      if (!need(a.mechanism)) return fail(flag + " requires a mechanism name");
      if (!known(kMechanisms, a.mechanism)) {
        return fail("unknown mechanism '" + a.mechanism + "'");
      }
    } else if (flag == "--gpus") {
      if (!need(v) || !parse_int(v, 1, 1 << 20, n)) {
        return fail(flag + " requires a positive integer");
      }
      a.gpus = static_cast<int>(n);
    } else if (flag == "--min") {
      if (!need(v) || !parse_int(v, 1, static_cast<long long>(kMaxSweepBytes), n)) {
        return fail(flag + " requires a byte count in [1, " +
                    std::to_string(kMaxSweepBytes) + "]");
      }
      a.min_bytes = static_cast<Bytes>(n);
    } else if (flag == "--max") {
      if (!need(v) || !parse_int(v, 1, static_cast<long long>(kMaxSweepBytes), n)) {
        return fail(flag + " requires a byte count in [1, " +
                    std::to_string(kMaxSweepBytes) + "]");
      }
      a.max_bytes = static_cast<Bytes>(n);
    } else if (flag == "--space") {
      if (!need(v)) return fail(flag + " requires 'host' or 'device'");
      if (v == "host") {
        a.space = MemSpace::kHost;
      } else if (v == "device") {
        a.space = MemSpace::kDevice;
      } else {
        return fail("unknown space '" + v + "' (host|device)");
      }
    } else if (flag == "--untuned") {
      a.tuned = false;
    } else if (flag == "--sl") {
      if (!need(v) || !parse_int(v, 0, 15, n)) {
        return fail(flag + " requires a service level in [0, 15]");
      }
      a.service_level = static_cast<int>(n);
    } else if (flag == "--iters") {
      if (!need(v) || !parse_int(v, 1, 1'000'000, n)) {
        return fail(flag + " requires a positive iteration count");
      }
      a.iters = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!need(a.trace_path)) return fail(flag + " requires an output path");
    } else if (flag == "--counters") {
      a.counters = true;
    } else if (flag == "--dump-schedule") {
      a.dump_schedule = true;
    } else if (flag == "--placement") {
      if (!need(v)) return fail(flag + " requires packed|switches|groups");
      if (!parse_placement_name(v, a.placement)) {
        return fail("unknown placement '" + v + "' (packed|switches|groups)");
      }
    } else if (flag == "--faults") {
      if (!need(a.faults)) return fail(flag + " requires a path or inline spec");
    } else if (flag == "--profile") {
      a.profile = true;
    } else if (flag == "--metrics-out") {
      if (!need(a.metrics_out)) return fail(flag + " requires an output path");
    } else if (flag == "--timeseries") {
      if (!need(a.timeseries_path)) return fail(flag + " requires an output path");
    } else if (flag == "--bucket-us") {
      if (!need(v) || !parse_int(v, 1, 1'000'000'000, n)) {
        return fail(flag + " requires a positive bucket width in microseconds");
      }
      a.bucket_us = static_cast<int>(n);
    } else if (flag == "--seed") {
      if (!need(v) || !parse_int(v, 0, INT64_MAX, n)) {
        return fail(flag + " requires a non-negative integer");
      }
      a.seed = static_cast<std::uint64_t>(n);
    } else if (flag == "--jobs") {
      if (!need(v) || !parse_int(v, 1, 1024, n)) {
        return fail(flag + " requires a worker count in [1, 1024]");
      }
      a.jobs = static_cast<int>(n);
      a.jobs_given = true;
    } else if (flag == "--no-noise") {
      a.noise = false;
    } else if (flag == "--nodes") {
      if (!need(v) || !parse_int(v, 1, 1 << 20, n)) {
        return fail(flag + " requires a positive node count");
      }
      a.nodes = static_cast<int>(n);
    } else if (flag == "--net-shards") {
      if (!need(v) || !parse_int(v, 1, 64, n)) {
        return fail(flag + " requires a shard count in [1, 64]");
      }
      a.net_shards = static_cast<int>(n);
    } else if (flag == "--serve") {
      a.serve = true;
    } else if (flag == "--serve-jobs") {
      if (!need(v) || !parse_int(v, 1, 1024, n)) {
        return fail(flag + " requires a worker count in [1, 1024]");
      }
      a.serve_jobs = static_cast<int>(n);
    } else if (flag == "--serve-cache-mb") {
      if (!need(v) || !parse_int(v, 1, 1 << 20, n)) {
        return fail(flag + " requires a budget in MiB in [1, 1048576]");
      }
      a.serve_cache_mb = static_cast<int>(n);
    } else if (flag == "--serve-socket") {
      if (!need(a.serve_socket)) return fail(flag + " requires a socket path");
    } else if (flag == "--serve-deadline-ms") {
      if (!need(v) || !parse_int(v, 0, 86'400'000, n)) {
        return fail(flag + " requires a budget in ms in [0, 86400000]");
      }
      a.serve_deadline_ms = static_cast<int>(n);
    } else if (flag == "--serve-max-queue") {
      if (!need(v) || !parse_int(v, 0, 1'000'000, n)) {
        return fail(flag + " requires a queue bound in [0, 1000000]");
      }
      a.serve_max_queue = static_cast<int>(n);
    } else if (flag == "--serve-max-line-bytes") {
      if (!need(v) || !parse_int(v, 64, 1 << 30, n)) {
        return fail(flag + " requires a byte bound in [64, 1073741824]");
      }
      a.serve_max_line_bytes = static_cast<std::size_t>(n);
    } else if (flag == "--serve-cache-file") {
      if (!need(a.serve_cache_file)) return fail(flag + " requires a snapshot path");
    } else if (flag == "--serve-snapshot-every") {
      if (!need(v) || !parse_int(v, 0, 1'000'000'000, n)) {
        return fail(flag + " requires a query cadence in [0, 1000000000]");
      }
      a.serve_snapshot_every = static_cast<int>(n);
    } else {
      return fail("unknown flag '" + flag + "'");
    }
  }
  if (a.min_bytes > a.max_bytes) return fail("--min exceeds --max");
  if (a.serve && !scenario_flag.empty()) {
    return fail("--serve cannot be combined with '" + scenario_flag +
                "' (scenario parameters arrive per query)");
  }
  if (!a.serve &&
      (a.serve_jobs != 1 || a.serve_cache_mb != 256 || !a.serve_socket.empty() ||
       a.serve_deadline_ms != 0 || a.serve_max_queue != 1024 ||
       a.serve_max_line_bytes != (1u << 20) || !a.serve_cache_file.empty() ||
       a.serve_snapshot_every != 256)) {
    return fail("--serve-* flags require --serve");
  }
  // Cell mode runs every (size, rep) on its own cluster; flags that hold
  // whole-run state on one cluster (telemetry sinks) or replay events at
  // absolute engine times (fault schedules) have no per-cell meaning.
  if (a.jobs_given && (!a.trace_path.empty() || a.counters || a.profile ||
                       !a.timeseries_path.empty() || !a.faults.empty())) {
    return fail(
        "--jobs is incompatible with whole-run state "
        "(--trace/--counters/--profile/--timeseries/--faults)");
  }
  return a;
}

}  // namespace gpucomm::cli
