// Shared scaffolding for the per-figure benchmark binaries.
//
// Every binary regenerates one table/figure of the paper: it prints the
// series as an aligned table (annotated with the paper's qualitative
// expectation) and drops a CSV next to it, mirroring the artifact's data/
// layout (emit). The wall-clock benches only print theirs (show): data/
// holds only what a run reproduces. Binaries take no required arguments so
// `for b in build/bench/*` reproduces the full evaluation. Pass
// `--json <path>` (after calling bench::init) to additionally dump every
// emitted table as one machine-readable JSON document — the format
// BENCH_perf.json's documents use.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/comm/ccl/ccl_comm.hpp"
#include "gpucomm/comm/devcopy.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/comm/staging.hpp"
#include "gpucomm/harness/runner.hpp"
#include "gpucomm/harness/table.hpp"
#include "gpucomm/metrics/json.hpp"
#include "gpucomm/metrics/version.hpp"
#include "gpucomm/systems/registry.hpp"

namespace gpucomm::bench {

namespace detail {

/// Tables captured for --json, in emission order (name = CSV stem).
struct JsonCapture {
  std::string path;
  std::string benchmark;
  std::vector<std::pair<std::string, Table>> tables;
};

inline JsonCapture& capture() {
  static JsonCapture c;
  return c;
}

/// --jobs worker count; 1 = flag absent (serial).
inline int& jobs_store() {
  static int n = 1;
  return n;
}

/// --exact-point GPU count; 0 = flag absent (normal sweep).
inline int& exact_point_store() {
  static int n = 0;
  return n;
}

/// atexit hook: write every captured table as one JSON document. Runs after
/// main returns so it sees the full emission sequence without the benches
/// having to thread state through.
inline void write_json_capture() {
  JsonCapture& c = capture();
  if (c.path.empty()) return;
  std::ofstream os(c.path);
  if (!os) {
    std::cerr << "error: cannot write --json file '" << c.path << "'\n";
    return;
  }
  metrics::JsonWriter w(os);
  w.begin_object();
  w.kv("benchmark", c.benchmark);
  w.kv("version", metrics::build_version());
  // Host core count, so archived trend documents from different runner
  // generations stay interpretable: wall-clock rows such as perf_server's
  // concurrent soak pass depend on it.
  w.kv("host_cpus", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.key("tables").begin_array();
  for (const auto& [name, table] : c.tables) {
    w.begin_object();
    w.kv("name", name);
    w.key("headers").begin_array();
    for (const std::string& h : table.headers()) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : table.row_data()) {
      w.begin_array();
      for (const std::string& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  std::cout << "[json] " << c.path << "\n";
}

}  // namespace detail

/// Whether a bench is the Fig. 9/10 scalability sweep (scalability.hpp). Its
/// exact-sim points are independent deterministic cells that run on the
/// `--jobs` pool (docs/PERFORMANCE.md), and `--exact-point <gpus>` collapses
/// it to a single exact-sim measurement (the CI scale-smoke entry point).
/// Every other bench shares one cluster across its iterations, so both
/// flags are usage errors there, not a silent serial run.
enum class Sweep { kPaper, kScalability };

/// Worker count from `--jobs N`, or 1 when the flag was absent.
inline int jobs() { return detail::jobs_store(); }

/// GPU count from `--exact-point <gpus>`, or 0 when the flag was absent.
inline int exact_point() { return detail::exact_point_store(); }

/// Parse shared bench flags (call first in main). Recognizes
/// `--json <path>`, and for Sweep::kScalability `--jobs <N>` and
/// `--exact-point <gpus>`. Strict in the cli::parse_cli style: an unknown
/// flag, a missing value, or a malformed number prints one line naming the
/// problem (plus the usage line) on stderr and exits with status 2, so a
/// typo does not silently run the full sweep.
inline void init(int argc, char** argv, Sweep sweep = Sweep::kPaper) {
  detail::JsonCapture& c = detail::capture();
  c.benchmark =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "bench";
  const auto fail = [&](const std::string& message) {
    std::cerr << c.benchmark << ": " << message << "\n"
              << "usage: " << c.benchmark << " [--json <path>]"
              << (sweep == Sweep::kScalability ? " [--jobs <N>] [--exact-point <gpus>]" : "")
              << "\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) fail("--json requires an output path");
      c.path = argv[++i];
    } else if (arg == "--exact-point") {
      if (sweep != Sweep::kScalability) {
        fail("--exact-point is not supported by this bench (not a scalability sweep)");
      }
      if (i + 1 >= argc) fail("--exact-point requires a GPU count in [1, 16384]");
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 1 || n > 16384) {
        fail("--exact-point requires a GPU count in [1, 16384]");
      }
      detail::exact_point_store() = static_cast<int>(n);
    } else if (arg == "--jobs") {
      if (sweep != Sweep::kScalability) {
        fail("--jobs is not supported by this bench (its sweep is not cell-decomposable)");
      }
      if (i + 1 >= argc) fail("--jobs requires a worker count in [1, 1024]");
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 1 || n > 1024) {
        fail("--jobs requires a worker count in [1, 1024]");
      }
      detail::jobs_store() = static_cast<int>(n);
    } else {
      fail("unknown flag '" + arg + "'");
    }
  }
  if (!c.path.empty()) std::atexit(detail::write_json_capture);
}

/// Directory for CSV output (artifact-style data/ folder). Override with
/// GPUCOMM_DATA_DIR; creation failures degrade to printing only.
inline std::string data_dir() {
  const char* env = std::getenv("GPUCOMM_DATA_DIR");
  std::string dir = env != nullptr ? env : "data";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Print `table` and capture it for --json under `name`. The wall-clock
/// benches (perf_wallclock, perf_server) stop here: no run reproduces their
/// readings, so they stay out of data/.
inline void show(const Table& table, const std::string& name) {
  table.print(std::cout);
  if (!detail::capture().path.empty()) detail::capture().tables.emplace_back(name, table);
}

/// show() the table under its CSV stem, then write it to data/.
inline void emit(const Table& table, const std::string& csv_name) {
  show(table, std::filesystem::path(csv_name).stem().string());
  const std::string path = data_dir() + "/" + csv_name;
  table.write_csv(path);
  std::cout << "\n[csv] " << path << "\n";
  // Artifact parity: data/description.csv records every produced file (the
  // original artifact keeps run metadata the same way), one line per CSV,
  // sorted by name. The file is rewritten whole, so re-running a bench
  // replaces its line instead of appending a duplicate.
  const std::string desc_path = data_dir() + "/description.csv";
  std::map<std::string, std::string> lines;  // CSV name -> its line
  {
    std::ifstream in(desc_path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines[line.substr(0, line.find(','))] = line;
    }
  }
  lines[csv_name] = csv_name + "," + std::to_string(table.rows()) + " rows";
  std::ofstream desc(desc_path, std::ios::trunc);
  for (const auto& entry : lines) desc << entry.second << "\n";
}

inline void header(const std::string& figure, const std::string& description) {
  std::cout << "\n================================================================\n"
            << figure << " — " << description << "\n"
            << "================================================================\n";
}

/// The library's mechanism factory, under the name the benches and
/// perfbench call.
using gpucomm::make_comm;

/// The standard message-size sweep (powers of four from 1 B to 1 GiB).
inline std::vector<Bytes> size_sweep() {
  std::vector<Bytes> sizes;
  for (Bytes b = 1; b <= 1_GiB; b *= 4) sizes.push_back(b);
  if (sizes.back() != 1_GiB) sizes.push_back(1_GiB);
  return sizes;
}

}  // namespace gpucomm::bench
