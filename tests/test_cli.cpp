// Strict CLI parsing: valid invocations round-trip into CliArgs, every kind
// of malformed input fails with a one-line diagnostic (the binary turns that
// into stderr + exit 2 — what the driver's contract promises).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "byte_mutations.hpp"
#include "gpucomm/harness/cli_args.hpp"

namespace gpucomm {
namespace {

std::optional<cli::CliArgs> parse(std::vector<const char*> argv, std::string& err) {
  argv.insert(argv.begin(), "gpucomm_cli");
  return cli::parse_cli(static_cast<int>(argv.size()), argv.data(), err);
}

TEST(CliArgs, FullValidInvocationRoundTrips) {
  std::string err;
  const auto a = parse({"--system", "alps", "--op", "allreduce", "--mechanism", "ccl",
                        "--gpus", "16", "--min", "1024", "--max", "1048576", "--space",
                        "host", "--untuned", "--sl", "3", "--iters", "7", "--placement",
                        "groups", "--trace", "out.json", "--counters", "--faults",
                        "at 1us down link 4; at 2us up link 4"},
                       err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->system, "alps");
  EXPECT_EQ(a->op, "allreduce");
  EXPECT_EQ(a->mechanism, "ccl");
  EXPECT_EQ(a->gpus, 16);
  EXPECT_EQ(a->min_bytes, 1024u);
  EXPECT_EQ(a->max_bytes, 1048576u);
  EXPECT_EQ(a->space, MemSpace::kHost);
  EXPECT_FALSE(a->tuned);
  EXPECT_EQ(a->service_level, 3);
  EXPECT_EQ(a->iters, 7);
  EXPECT_EQ(a->placement, Placement::kScatterGroups);
  EXPECT_EQ(a->trace_path, "out.json");
  EXPECT_TRUE(a->counters);
  EXPECT_EQ(a->faults, "at 1us down link 4; at 2us up link 4");
}

TEST(CliArgs, DefaultsWithNoFlags) {
  std::string err;
  const auto a = parse({}, err);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->system, "leonardo");
  EXPECT_EQ(a->gpus, 2);
  EXPECT_TRUE(a->tuned);
  EXPECT_TRUE(a->faults.empty());
  EXPECT_FALSE(a->profile);
  EXPECT_TRUE(a->metrics_out.empty());
  EXPECT_TRUE(a->timeseries_path.empty());
  EXPECT_EQ(a->bucket_us, 50);
  EXPECT_EQ(a->seed, 42u);
}

TEST(CliArgs, MetricsFlagsRoundTrip) {
  std::string err;
  const auto a = parse({"--profile", "--metrics-out", "run.json", "--timeseries",
                        "ts.csv", "--bucket-us", "10", "--seed", "1234"},
                       err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_TRUE(a->profile);
  EXPECT_EQ(a->metrics_out, "run.json");
  EXPECT_EQ(a->timeseries_path, "ts.csv");
  EXPECT_EQ(a->bucket_us, 10);
  EXPECT_EQ(a->seed, 1234u);
}

TEST(CliArgs, MetricsFlagsRejectBadValues) {
  std::string err;
  EXPECT_FALSE(parse({"--bucket-us", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--bucket-us", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--seed", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--metrics-out"}, err).has_value());
  EXPECT_FALSE(parse({"--timeseries"}, err).has_value());
}

TEST(CliArgs, HelpShortCircuits) {
  std::string err;
  const auto a = parse({"--help"}, err);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->help);
}

TEST(CliArgs, UnknownFlagFailsWithItsName) {
  std::string err;
  EXPECT_FALSE(parse({"--bogus"}, err).has_value());
  EXPECT_NE(err.find("--bogus"), std::string::npos);
}

TEST(CliArgs, MissingValueFails) {
  std::string err;
  EXPECT_FALSE(parse({"--gpus"}, err).has_value());
  EXPECT_FALSE(parse({"--system"}, err).has_value());
  EXPECT_FALSE(parse({"--faults"}, err).has_value());
}

TEST(CliArgs, NonNumericNumbersFail) {
  std::string err;
  EXPECT_FALSE(parse({"--gpus", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--gpus", "4x"}, err).has_value());
  EXPECT_FALSE(parse({"--gpus", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--gpus", "-3"}, err).has_value());
  EXPECT_FALSE(parse({"--min", "1e6"}, err).has_value());
  EXPECT_FALSE(parse({"--iters", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--sl", "16"}, err).has_value());
}

TEST(CliArgs, UnknownNamesFail) {
  std::string err;
  EXPECT_FALSE(parse({"--system", "frontier"}, err).has_value());
  EXPECT_NE(err.find("frontier"), std::string::npos);
  EXPECT_FALSE(parse({"--op", "gather"}, err).has_value());
  EXPECT_FALSE(parse({"--mechanism", "nvshmem"}, err).has_value());
  EXPECT_FALSE(parse({"--placement", "diagonal"}, err).has_value());
  EXPECT_FALSE(parse({"--space", "unified"}, err).has_value());
}

TEST(CliArgs, MinAboveMaxFails) {
  std::string err;
  EXPECT_FALSE(parse({"--min", "4096", "--max", "1024"}, err).has_value());
  EXPECT_NE(err.find("--min"), std::string::npos);
}

TEST(CliArgs, SweepBoundsCappedAtOneTebibyte) {
  // Both bounds are capped at 1 TiB: an unbounded --max lets the x4 sweep
  // step wrap Bytes to 0 and append sizes until memory runs out.
  std::string err;
  EXPECT_FALSE(parse({"--min", "1", "--max", "9223372036854775807"}, err).has_value());
  EXPECT_NE(err.find("--max"), std::string::npos) << err;
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_FALSE(parse({"--max", "1099511627777"}, err).has_value());
  EXPECT_FALSE(parse({"--min", "1099511627777"}, err).has_value());
  EXPECT_NE(err.find("--min"), std::string::npos) << err;
  const auto a = parse({"--min", "1", "--max", "1099511627776"}, err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->max_bytes, cli::kMaxSweepBytes);
  const std::vector<Bytes> sizes = cli::sweep_sizes(a->min_bytes, a->max_bytes);
  ASSERT_EQ(sizes.size(), 21u);  // 1, 4, ..., 4^20 = 1 TiB
  EXPECT_EQ(sizes.back(), cli::kMaxSweepBytes);
}

TEST(CliArgs, SweepSizesStopBeforeWrapping) {
  // The helper itself never wraps, whatever bounds a caller hands it.
  EXPECT_EQ(cli::sweep_sizes(1024, 16384), (std::vector<Bytes>{1024, 4096, 16384}));
  EXPECT_EQ(cli::sweep_sizes(1024, 16383), (std::vector<Bytes>{1024, 4096}));
  const std::vector<Bytes> huge = cli::sweep_sizes(1, ~Bytes{0});
  EXPECT_EQ(huge.size(), 32u);  // 4^0 .. 4^31; 4^32 would wrap to 0
  EXPECT_EQ(cli::sweep_sizes(0, 8), (std::vector<Bytes>{0}));
}

TEST(CliArgs, JobsRoundTripsAndDefaultsToCoupled) {
  std::string err;
  const auto def = parse({}, err);
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->jobs, 1);
  EXPECT_FALSE(def->jobs_given);

  const auto a = parse({"--jobs", "4"}, err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->jobs, 4);
  EXPECT_TRUE(a->jobs_given);

  // --jobs 1 still selects the cell harness: the flag's presence, not its
  // value, is what switches sampling semantics.
  const auto one = parse({"--jobs", "1"}, err);
  ASSERT_TRUE(one.has_value()) << err;
  EXPECT_TRUE(one->jobs_given);
}

TEST(CliArgs, JobsRejectsBadValues) {
  std::string err;
  EXPECT_FALSE(parse({"--jobs"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "-2"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "1025"}, err).has_value());
}

TEST(CliArgs, JobsRejectsWholeRunStateFlags) {
  std::string err;
  EXPECT_FALSE(parse({"--jobs", "4", "--trace", "t.json"}, err).has_value());
  EXPECT_NE(err.find("--jobs"), std::string::npos);
  EXPECT_FALSE(parse({"--jobs", "4", "--counters"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "4", "--profile"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "4", "--timeseries", "ts.csv"}, err).has_value());
  EXPECT_FALSE(parse({"--jobs", "4", "--faults", "at 1us down link 4"}, err).has_value());
  // --metrics-out is fine: the manifest is merged from cell results.
  EXPECT_TRUE(parse({"--jobs", "4", "--metrics-out", "m.json"}, err).has_value()) << err;
}

TEST(CliArgs, NodesAndNoiseRoundTrip) {
  std::string err;
  const auto def = parse({}, err);
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->nodes, 0);  // derive from --gpus
  EXPECT_TRUE(def->noise);

  const auto a = parse({"--nodes", "8", "--no-noise"}, err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->nodes, 8);
  EXPECT_FALSE(a->noise);

  EXPECT_FALSE(parse({"--nodes", "0"}, err).has_value());
  EXPECT_FALSE(parse({"--nodes", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--nodes"}, err).has_value());
}

TEST(CliArgs, ServeRoundTrips) {
  std::string err;
  const auto def = parse({}, err);
  ASSERT_TRUE(def.has_value());
  EXPECT_FALSE(def->serve);
  EXPECT_EQ(def->serve_jobs, 1);
  EXPECT_EQ(def->serve_cache_mb, 256);
  EXPECT_TRUE(def->serve_socket.empty());
  EXPECT_EQ(def->serve_deadline_ms, 0);
  EXPECT_EQ(def->serve_max_queue, 1024);
  EXPECT_EQ(def->serve_max_line_bytes, 1u << 20);
  EXPECT_TRUE(def->serve_cache_file.empty());
  EXPECT_EQ(def->serve_snapshot_every, 256);

  const auto a = parse({"--serve", "--serve-jobs", "8", "--serve-cache-mb", "64",
                        "--serve-socket", "/tmp/gpucomm.sock", "--serve-deadline-ms",
                        "5000", "--serve-max-queue", "32", "--serve-max-line-bytes",
                        "4096", "--serve-cache-file", "/tmp/gpucomm.cache",
                        "--serve-snapshot-every", "100"},
                       err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_TRUE(a->serve);
  EXPECT_EQ(a->serve_jobs, 8);
  EXPECT_EQ(a->serve_cache_mb, 64);
  EXPECT_EQ(a->serve_socket, "/tmp/gpucomm.sock");
  EXPECT_EQ(a->serve_deadline_ms, 5000);
  EXPECT_EQ(a->serve_max_queue, 32);
  EXPECT_EQ(a->serve_max_line_bytes, 4096u);
  EXPECT_EQ(a->serve_cache_file, "/tmp/gpucomm.cache");
  EXPECT_EQ(a->serve_snapshot_every, 100);
}

TEST(CliArgs, ServeRejectsScenarioFlags) {
  // In serve mode every scenario parameter arrives per query; a scenario
  // flag on the command line is a usage error naming the offending flag.
  std::string err;
  EXPECT_FALSE(parse({"--serve", "--gpus", "4"}, err).has_value());
  EXPECT_NE(err.find("--gpus"), std::string::npos);
  EXPECT_FALSE(parse({"--op", "allreduce", "--serve"}, err).has_value());
  EXPECT_NE(err.find("--op"), std::string::npos);
  EXPECT_FALSE(parse({"--serve", "--jobs", "4"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--metrics-out", "m.json"}, err).has_value());
}

TEST(CliArgs, ServeSubflagsRequireServe) {
  std::string err;
  EXPECT_FALSE(parse({"--serve-jobs", "4"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-cache-mb", "64"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-socket", "/tmp/s.sock"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-deadline-ms", "100"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-max-queue", "16"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-max-line-bytes", "4096"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-cache-file", "/tmp/c"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-snapshot-every", "10"}, err).has_value());
  EXPECT_FALSE(parse({"--serve-jobs", "0", "--serve"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-cache-mb", "abc"}, err).has_value());
}

TEST(CliArgs, ServeHardeningFlagsRejectBadRanges) {
  std::string err;
  // Each flag validates its documented range with a one-line diagnostic.
  EXPECT_FALSE(parse({"--serve", "--serve-deadline-ms", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-deadline-ms", "86400001"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-max-queue", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-max-line-bytes", "63"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-max-line-bytes", "abc"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-snapshot-every", "-1"}, err).has_value());
  EXPECT_FALSE(parse({"--serve", "--serve-cache-file"}, err).has_value());  // no value
  // Zero is meaningful, not an error: no deadline, unbounded queue, snapshot
  // only at shutdown.
  EXPECT_TRUE(parse({"--serve", "--serve-deadline-ms", "0"}, err).has_value()) << err;
  EXPECT_TRUE(parse({"--serve", "--serve-max-queue", "0"}, err).has_value()) << err;
  EXPECT_TRUE(parse({"--serve", "--serve-snapshot-every", "0"}, err).has_value()) << err;
}

TEST(CliArgs, SharedVocabularyHelpers) {
  EXPECT_TRUE(cli::known_op("allreduce"));
  EXPECT_FALSE(cli::known_op("gather"));
  EXPECT_TRUE(cli::known_mechanism("ccl"));
  EXPECT_FALSE(cli::known_mechanism("nvshmem"));
  Placement p = Placement::kPacked;
  EXPECT_TRUE(cli::parse_placement_name("groups", p));
  EXPECT_EQ(p, Placement::kScatterGroups);
  EXPECT_FALSE(cli::parse_placement_name("diagonal", p));
  EXPECT_STREQ(cli::placement_name(Placement::kScatterSwitches), "switches");
}

/// True when `text` is non-empty and holds no control byte, so the
/// diagnostic prints as exactly one line.
bool one_printable_line(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (static_cast<unsigned char>(c) < 0x20) return false;
  }
  return true;
}

TEST(CliArgs, ErrorMessageIsOneLine) {
  std::string err;
  EXPECT_FALSE(parse({"--gpus", "abc"}, err).has_value());
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_FALSE(err.empty());
  // Echoed input is escaped, so a newline in it cannot split the line.
  EXPECT_FALSE(parse({"--system", "leo\nnardo"}, err).has_value());
  EXPECT_TRUE(one_printable_line(err)) << err;
  EXPECT_NE(err.find("'leo\\nnardo'"), std::string::npos) << err;
  EXPECT_FALSE(parse({"--bo\ngus"}, err).has_value());
  EXPECT_TRUE(one_printable_line(err)) << err;
  // A removed flag is an unknown one.
  EXPECT_FALSE(parse({"--net-shards", "4"}, err).has_value());
  EXPECT_TRUE(one_printable_line(err)) << err;
  EXPECT_NE(err.find("unknown flag '--net-shards'"), std::string::npos) << err;
}

TEST(CliArgs, RandomMutationsYieldArgsOrOneLineError) {
  // Seeded flips, inserts, deletes and truncations of the words of valid
  // invocations: every argv must come back as CliArgs or as one non-empty
  // printable line — never an exception, and never a diagnostic that
  // echoes a raw control byte from the input.
  const std::vector<std::vector<std::string>> seeds = {
      {"--system", "alps", "--op", "allreduce", "--mechanism", "ccl", "--gpus", "16",
       "--min", "1024", "--max", "1048576", "--space", "host", "--placement", "groups",
       "--iters", "7", "--seed", "9", "--sl", "3", "--trace", "t.json"},
      {"--system", "lumi", "--op", "alltoall", "--mechanism", "mpi", "--gpus", "8",
       "--jobs", "4", "--nodes", "4", "--no-noise"},
      {"--serve", "--serve-jobs", "4", "--serve-socket", "s.sock", "--serve-cache-file",
       "c.bin", "--serve-deadline-ms", "250"},
  };
  Rng rng(20261018);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 12000; ++i) {
    std::vector<std::string> words = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const std::uint64_t edits = 1 + rng.uniform_int(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      std::string& w = words[static_cast<std::size_t>(rng.uniform_int(words.size()))];
      w = test::mutate(w, rng);
    }
    std::vector<const char*> argv;
    for (const std::string& w : words) argv.push_back(w.c_str());
    std::string err;
    std::optional<cli::CliArgs> a;
    ASSERT_NO_THROW(a = parse(argv, err));
    if (a.has_value()) {
      ++accepted;
      continue;
    }
    ++rejected;
    EXPECT_TRUE(one_printable_line(err)) << err;
  }
  // Both outcomes occur: mutated paths and counts can still parse.
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(rejected, 10000u);
}

}  // namespace
}  // namespace gpucomm
