// perfbench: runs one benchmark workload once, in this process, and
// prints one JSON line with its end-to-end numbers (and, with --trace, its
// per-layer numbers). perfbench/run.py starts one process per
// repetition, so every repetition starts cold.
//
//   perfbench --workload <name> [--seed N] [--trace] [--limit N]
//             [--data DIR] [--pinned FILE] [--spans FILE] [--hashes]
//
// Every result is checked two ways: at seed 42 its formatted row against the
// checked-in data/ CSV (scale-model rows, which no seed reaches, at every
// seed), and its raw simulated bits against the digests pinned in
// perfbench/pinned_digests.txt for this seed, when that file has the seed.
// Exit status: 0 all checks passed, 1 a result or probe check failed,
// 2 usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gpucomm/harness/stats.hpp"

using namespace perfbench;

namespace {

constexpr std::uint64_t kPaperSeed = 42;

struct Args {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  bool trace = false;
  std::size_t limit = 0;
  std::string data = "data";
  std::string pinned = "perfbench/pinned_digests.txt";
  std::string spans;
  bool hashes = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload <name> [--seed N] [--trace] [--limit N]"
               " [--data DIR] [--pinned FILE] [--spans FILE] [--hashes]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(std::string(flag) + " requires a non-negative integer");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(arg + " requires a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = parse_u64(value(), "--seed");
    else if (arg == "--trace") a.trace = true;
    else if (arg == "--limit") a.limit = parse_u64(value(), "--limit");
    else if (arg == "--data") a.data = value();
    else if (arg == "--pinned") a.pinned = value();
    else if (arg == "--spans") a.spans = value();
    else if (arg == "--hashes") a.hashes = true;
    else usage("unknown flag '" + arg + "'");
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, sep)) out.push_back(cell);
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Pinned per-result digests of `workload` at `seed`, in result order, or
/// an empty list when the file does not pin this seed. Line format:
/// `<workload> <seed>[,<seed>...] <hex> <hex> ...`.
std::vector<std::string> pinned_hashes(const std::string& path, const std::string& workload,
                                       std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, seeds;
    ls >> name >> seeds;
    if (name != workload) continue;
    for (const std::string& s : split(seeds, ',')) {
      if (s != std::to_string(seed)) continue;
      std::vector<std::string> hashes;
      for (std::string h; ls >> h;) hashes.push_back(h);
      return hashes;
    }
  }
  return {};
}

/// Read-only view of the checked-in reference CSVs.
class References {
 public:
  explicit References(std::string dir) : dir_(std::move(dir)) {}

  /// The reference row with the same first kKeyCols columns, or nullptr.
  const std::vector<std::string>* find(const Result& r) {
    constexpr std::size_t kKeyCols = 2;  // size or GPU count, mechanism or library
    auto it = files_.find(r.csv);
    if (it == files_.end()) {
      std::vector<std::vector<std::string>> rows;
      std::ifstream in(dir_ + "/" + r.csv);
      for (std::string line; std::getline(in, line);) rows.push_back(split(line, ','));
      it = files_.emplace(r.csv, std::move(rows)).first;
    }
    for (const auto& row : it->second) {
      if (row.size() >= kKeyCols &&
          std::equal(r.row.begin(), r.row.begin() + kKeyCols, row.begin())) {
        return &row;
      }
    }
    return nullptr;
  }

 private:
  std::string dir_;
  std::map<std::string, std::vector<std::vector<std::string>>> files_;
};

struct Verdict {
  int ops = 0;
  int failed = 0;
  int csv_rows = 0;
  bool pinned = false;
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

Verdict check(const Context& ctx, const Args& args) {
  Verdict v;
  References refs(args.data);
  const std::vector<std::string> pinned = pinned_hashes(args.pinned, args.workload, args.seed);
  v.pinned = !pinned.empty();
  const std::vector<Result>& results = ctx.results();
  v.ops = static_cast<int>(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    v.digest = fnv1a(&r.hash, sizeof r.hash, v.digest);
    bool ok = true;
    if (!r.csv.empty() && (args.seed == kPaperSeed || !r.seeded)) {
      ++v.csv_rows;
      const std::vector<std::string>* ref = refs.find(r);
      if (ref == nullptr || *ref != r.row) {
        ok = false;
        std::string row;
        for (const std::string& c : r.row) row += (row.empty() ? "" : ",") + c;
        std::cerr << "perfbench: " << r.csv << ": row '" << row << "' differs from data/\n";
      }
    }
    if (v.pinned && (i >= pinned.size() || pinned[i] != hex(r.hash))) {
      ok = false;
      std::cerr << "perfbench: result " << i << " of " << args.workload << " (" << r.row[0]
                << (r.row.size() > 1 ? " " + r.row[1] : "") << ") differs from its pinned digest\n";
    }
    if (!ok) ++v.failed;
  }
  return v;
}

/// Peak resident set of this program image. VmHWM rather than getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
/// launching process's footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-layer metrics of the traced run, from the spans and counters.
std::map<std::string, double> layer_metrics(Context& ctx) {
  const std::vector<Span>& spans = ctx.tracer().spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
  }
  std::map<std::string, double> total_ms, self_ms;
  std::map<std::string, std::uint64_t> count;
  std::vector<double> op_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
    total_ms[s.name] += ms;
    self_ms[s.name] += ms - child_ns[i] * 1e-6;
    ++count[s.name];
    if (std::string(s.name) == "comm.op") op_ms.push_back(ms);
  }
  std::sort(op_ms.begin(), op_ms.end());
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const Counters& c = ctx.counters();
  const gpucomm::net::SolverStats& st = c.solver;
  const double op_s = total_ms["comm.op"] * 1e-3;
  const double flows = static_cast<double>(ctx.sink().flows());
  const double lookups =
      static_cast<double>(st.cache_hits + st.cache_structural_hits + st.cache_misses);
  const double warm_outcomes =
      static_cast<double>(st.warm_hits + st.warm_misses + st.warm_fallback_order +
                          st.warm_fallback_tight + st.warm_fallback_progress);

  std::map<std::string, double> m;
  m["cluster.build_ms"] = total_ms["cluster.build"];
  m["comm.init_ms"] = total_ms["comm.init"];
  m["noise.resamples"] = static_cast<double>(c.noise_resamples);
  m["harness.iterations"] = static_cast<double>(ctx.iterations);
  m["harness.self_ms"] = self_ms["harness.run"];
  m["comm.op_samples"] = static_cast<double>(op_ms.size());
  m["comm.op_ms_p50"] = op_ms.empty() ? 0 : gpucomm::percentile_sorted(op_ms, 50);
  m["comm.op_ms_p90"] = op_ms.empty() ? 0 : gpucomm::percentile_sorted(op_ms, 90);
  m["comm.flows"] = flows;
  m["comm.us_per_flow"] = per(op_s * 1e6, flows);
  m["sched.plan_us"] = per(total_ms["sched.plan"] * 1e3, static_cast<double>(count["sched.plan"]));
  m["sched.rounds"] = static_cast<double>(ctx.plan_rounds());
  m["sim.events"] = static_cast<double>(c.events);
  m["sim.ns_per_event"] = per(op_s * 1e9, static_cast<double>(c.events));
  m["net.reallocations"] = static_cast<double>(st.reallocations);
  m["net.full_solves"] = static_cast<double>(st.full_solves);
  m["net.threshold_fallbacks"] = static_cast<double>(st.fallback_threshold);
  m["net.incremental_events"] = static_cast<double>(st.incremental_events);
  m["net.no_work_events"] = static_cast<double>(st.no_work_events);
  m["net.component_solves"] = static_cast<double>(st.component_solves);
  m["net.cache_lookups"] = lookups;
  m["net.cache_hit_ratio"] =
      per(static_cast<double>(st.cache_hits + st.cache_structural_hits), lookups);
  m["net.warm_outcomes"] = warm_outcomes;
  m["net.warm_hit_ratio"] = per(static_cast<double>(st.warm_hits), warm_outcomes);
  m["net.us_per_reallocation"] = per(op_s * 1e6, static_cast<double>(st.reallocations));
  m["scale.points"] = static_cast<double>(count["scale.point"]);
  m["scale.point_us"] = per(total_ms["scale.point"] * 1e3, static_cast<double>(count["scale.point"]));
  return m;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to '" << path << "'\n";
    return;
  }
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << spans[i].name
        << "\",\"parent\":" << spans[i].parent << ",\"begin_ns\":" << spans[i].begin_ns
        << ",\"end_ns\":" << spans[i].end_ns << "}";
  }
  out << "\n]\n";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : workloads()) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) usage("unknown workload '" + args.workload + "'");

  Context ctx(args.seed, args.trace, args.limit);
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  def->run(ctx);
  const double total_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const double total_cpu_s = process_cpu_s() - cpu0;

  std::map<std::string, double> layers;
  bool probes_ok = true;
  if (args.trace) {
    layers = layer_metrics(ctx);
    probes_ok = run_probes(ctx, layers);
    if (!probes_ok) std::cerr << "perfbench: fill probe rates differ from maxmin_fair_rates\n";
    if (!args.spans.empty()) write_spans(args.spans, ctx.tracer().spans());
  }
  const Verdict v = check(ctx, args);

  if (args.hashes) {
    std::cout << "hashes";
    for (const Result& r : ctx.results()) std::cout << " " << hex(r.hash);
    std::cout << "\n";
  }
  std::cout << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
            << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"wall_s\":"
            << num(total_s - ctx.setup_wall_s()) << ",\"cpu_s\":"
            << num(total_cpu_s - ctx.setup_cpu_s()) << ",\"setup_s\":"
            << num(ctx.setup_wall_s()) << ",\"peak_rss_mb\":" << num(peak_rss_mb())
            << ",\"ops\":" << v.ops << ",\"ops_failed\":" << v.failed
            << ",\"csv_rows\":" << v.csv_rows << ",\"pinned\":" << (v.pinned ? "true" : "false")
            << ",\"probes_ok\":" << (probes_ok ? "true" : "false") << ",\"digest\":\""
            << hex(v.digest) << "\",\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : layers) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":" << num(value);
    first = false;
  }
  std::cout << "}}\n";
  return v.failed == 0 && probes_ok ? 0 : 1;
}
