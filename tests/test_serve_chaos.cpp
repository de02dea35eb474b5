// Robustness of the hardened scenario server: bounded line framing, complete
// writes, crash-safe cache persistence, deadlines and load shedding, and a
// live unix-socket server under hostile clients (concurrent connections,
// slow-loris dribbles, dropped connections mid-query, oversized lines,
// graceful drain via shutdown and SIGTERM). The invariant under every attack
// is the determinism contract: the same query stream draws byte-identical
// responses, at any concurrency, any cache state, and across a restart that
// warms from a disk snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpucomm/serve/cache.hpp"
#include "gpucomm/serve/core.hpp"
#include "gpucomm/serve/io.hpp"
#include "gpucomm/serve/persist.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"
#include "gpucomm/serve/socket.hpp"
#include "byte_mutations.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#endif

namespace gpucomm::serve {
namespace {

// --- bounded line framing ---------------------------------------------------

std::vector<LineSplitter::Line> feed_all(LineSplitter& s, const std::string& bytes) {
  std::vector<LineSplitter::Line> out;
  s.feed(bytes.data(), bytes.size(), out);
  return out;
}

TEST(LineSplitter, FramesAcrossArbitraryChunkBoundaries) {
  LineSplitter s(64);
  std::vector<LineSplitter::Line> out;
  const std::string input = "alpha\nbeta\n\ngamma\n";
  for (const char c : input) s.feed(&c, 1, out);  // worst-case: 1-byte reads
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].text, "alpha");
  EXPECT_EQ(out[1].text, "beta");
  EXPECT_EQ(out[2].text, "");
  EXPECT_EQ(out[3].text, "gamma");
  for (const auto& l : out) EXPECT_FALSE(l.overflow);
}

TEST(LineSplitter, OverflowReportedOnceAndResynchronizes) {
  LineSplitter s(8);
  auto out = feed_all(s, std::string(100, 'x'));
  ASSERT_EQ(out.size(), 1u);  // exactly one overflow entry at bound crossing
  EXPECT_TRUE(out[0].overflow);
  EXPECT_TRUE(s.discarding());
  out = feed_all(s, std::string(100, 'x'));  // rest of the same line: silent
  EXPECT_TRUE(out.empty());
  out = feed_all(s, "\nok\n");  // newline ends discard; framing recovers
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].overflow);
  EXPECT_EQ(out[0].text, "ok");
}

TEST(LineSplitter, TakePartialReturnsUnterminatedTail) {
  LineSplitter s(64);
  auto out = feed_all(s, "done\ntail");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(s.take_partial(), "tail");
  EXPECT_EQ(s.take_partial(), "");  // consumed
}

TEST(ReadBoundedLine, GetlineSemanticsWithBound) {
  std::istringstream in("short\n" + std::string(100, 'y') + "\nafter\nnoeol");
  std::string line;
  EXPECT_EQ(read_bounded_line(in, line, 16), ReadLineStatus::kLine);
  EXPECT_EQ(line, "short");
  // Overflow consumes through the newline: the stream stays line-synced.
  EXPECT_EQ(read_bounded_line(in, line, 16), ReadLineStatus::kOverflow);
  EXPECT_EQ(read_bounded_line(in, line, 16), ReadLineStatus::kLine);
  EXPECT_EQ(line, "after");
  // Unterminated final fragment is a line, as with std::getline.
  EXPECT_EQ(read_bounded_line(in, line, 16), ReadLineStatus::kLine);
  EXPECT_EQ(line, "noeol");
  EXPECT_EQ(read_bounded_line(in, line, 16), ReadLineStatus::kEof);
}

#if defined(__unix__) || defined(__APPLE__)

// --- complete writes --------------------------------------------------------

TEST(WriteAll, SurvivesShortWritesThroughAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // 4 MiB through a ~64 KiB pipe buffer: write(2) must go short many times.
  const std::string payload(4u << 20, 'z');
  std::string received;
  std::thread reader([&] {
    char buf[8192];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
      received.append(buf, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(write_all(fds[1], payload.data(), payload.size()));
  ::close(fds[1]);
  reader.join();
  ::close(fds[0]);
  EXPECT_EQ(received, payload);  // complete and unreordered
}

TEST(WriteAll, FailsCleanlyOnClosedPeer) {
  // EPIPE must come back as `false`, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  const std::string payload(1u << 20, 'q');
  EXPECT_FALSE(write_all(fds[1], payload.data(), payload.size()));
  ::close(fds[1]);
}

TEST(WriteSome, StopsAtFullPipeWithoutLosingBytes) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::fcntl(fds[1], F_SETFL, O_NONBLOCK), 0);
  const std::string payload(1u << 20, 'w');
  long total = 0;
  long put;
  while ((put = write_some(fds[1], payload.data() + total,
                           payload.size() - static_cast<std::size_t>(total),
                           /*to_socket=*/false)) > 0) {
    total += put;
  }
  EXPECT_EQ(put, 0);  // EAGAIN, not an error
  EXPECT_GT(total, 0);
  EXPECT_LT(static_cast<std::size_t>(total), payload.size());
  std::string received(static_cast<std::size_t>(total), '\0');
  EXPECT_EQ(::read(fds[0], received.data(), received.size()),
            static_cast<ssize_t>(total));
  EXPECT_EQ(received, std::string(static_cast<std::size_t>(total), 'w'));
  ::close(fds[0]);
  ::close(fds[1]);
}

#endif  // POSIX write tests

// --- shared fixtures --------------------------------------------------------

std::string temp_path(const std::string& stem) {
#if defined(__unix__) || defined(__APPLE__)
  const long tag = static_cast<long>(::getpid());
#else
  const long tag = 0;
#endif
  return testing::TempDir() + "gpucomm_chaos_" + stem + "_" + std::to_string(tag);
}

const char* kFastQuery =
    R"({"id": 1, "op": "pingpong", "mechanism": "mpi", "gpus": 2, "min": 1024, "max": 1024, "iters": 2})";
// A query heavy enough (multi-size coupled allreduce) that anything queued
// behind it measurably waits — the shedding tests rely on that.
const char* kSlowQuery =
    R"({"id": 2, "op": "allreduce", "mechanism": "mpi", "gpus": 4, "min": 1024, "max": 16384, "iters": 3})";
// Heavier still (9 sizes, 8 ranks): occupies a worker for well over the 1 ms
// deadline budget the shedding test hands the queries queued behind it.
const char* kHeavyQuery =
    R"({"id": 2, "op": "allreduce", "mechanism": "mpi", "gpus": 8, "min": 1024, "max": 262144, "iters": 4})";

std::string run_loop(const std::string& input, ServeOptions o,
                     ServeResult* result_out = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const ServeResult r = serve_loop(in, out, o);
  if (result_out != nullptr) *result_out = r;
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::size_t count_with(const std::vector<std::string>& lines, const std::string& what) {
  std::size_t n = 0;
  for (const std::string& l : lines) {
    if (l.find(what) != std::string::npos) ++n;
  }
  return n;
}

// --- stdio transport: bounds, deadlines, shedding ---------------------------

TEST(ServeChaosStdio, OversizedLineAnswersOneErrorAndRecovers) {
  ServeOptions o;
  o.cache_bytes = 64u << 20;
  o.max_line_bytes = 128;
  const std::string input =
      std::string(kFastQuery) + "\n" + std::string(4096, 'a') + "\n" +
      "{\"id\": 3, \"control\": \"ping\"}\n";
  ServeResult r;
  const auto lines = lines_of(run_loop(input, o, &r));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("serve-max-line-bytes"), std::string::npos);
  EXPECT_NE(lines[2].find("\"control\":\"ping\""), std::string::npos);
  EXPECT_EQ(r.counters.line_overflows, 1u);
}

TEST(ServeChaosStdio, ExpiredDeadlineShedsQueuedQueries) {
  // Two slow queries occupy both workers; the fast queries behind them carry
  // a 1 ms queue-wait budget and must be shed, not run late.
  ServeOptions o;
  o.jobs = 2;
  o.cache_bytes = 64u << 20;
  std::ostringstream in;
  in << kHeavyQuery << "\n" << kHeavyQuery << "\n";
  for (int i = 0; i < 3; ++i) {
    in << R"({"id": 10, "op": "pingpong", "gpus": 2, "min": 1024, "max": 1024, "iters": 2, "deadline_ms": 1})"
       << "\n";
  }
  ServeResult r;
  const auto lines = lines_of(run_loop(in.str(), o, &r));
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(count_with(lines, "\"error\":\"deadline\""), 3u);
  EXPECT_EQ(count_with(lines, "\"ok\":true"), 2u);
  EXPECT_EQ(r.counters.shed_deadline, 3u);
  EXPECT_EQ(r.counters.answered, 2u);
}

TEST(ServeChaosStdio, InlineModeNeverSheds) {
  // jobs<=1 on stdio answers inline: no queue, so a deadline cannot expire
  // before the run starts and the query is answered normally.
  ServeOptions o;
  o.cache_bytes = 64u << 20;
  o.deadline_ms = 1;
  const auto lines = lines_of(run_loop(std::string(kFastQuery) + "\n", o));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
}

TEST(ServeChaosStdio, OverloadedQueueShedsWithRetryHint) {
  ServeOptions o;
  o.jobs = 2;
  o.max_queue = 1;
  o.cache_bytes = 64u << 20;
  std::ostringstream in;
  for (int i = 0; i < 8; ++i) in << kSlowQuery << "\n";
  ServeResult r;
  const auto lines = lines_of(run_loop(in.str(), o, &r));
  ASSERT_EQ(lines.size(), 8u);
  const std::size_t shed = count_with(lines, "\"error\":\"overloaded\"");
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(count_with(lines, "retry_after_ms"), shed);
  EXPECT_EQ(r.counters.shed_overload, shed);
  EXPECT_EQ(r.counters.answered + shed, 8u);
  // Identical queries: every line that did run is byte-identical.
  std::string ok_line;
  for (const std::string& l : lines) {
    if (l.find("\"ok\":true") == std::string::npos) continue;
    if (ok_line.empty()) ok_line = l;
    EXPECT_EQ(l, ok_line);
  }
}

TEST(ServeChaosStdio, StatsCarriesServerCounters) {
  ServeOptions o;
  o.cache_bytes = 64u << 20;
  const std::string input = "not json\n{\"id\": 5, \"control\": \"stats\"}\n";
  const auto lines = lines_of(run_loop(input, o));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"server\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"parse_errors\": 1"), std::string::npos) << lines[1];
}

// --- crash-safe cache persistence -------------------------------------------

TEST(Persistence, RoundTripsResponsesByteExact) {
  const std::string path = temp_path("snap");
  ServerCaches a(64u << 20);
  auto out = std::make_shared<ScenarioOutput>();
  out->header = "# header\n";
  out->table = "table text\n";
  out->manifest_pretty = "{\n \"x\": 1\n}\n";
  out->manifest_compact = std::string("{\"x\":1,\"nul\":\"") + '\0' + "\"}";
  a.responses.insert("resp-key", out, out->cost_bytes());

  const SnapshotInfo saved = save_cache_snapshot(path, a);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.responses, 1u);

  ServerCaches b(64u << 20);
  const SnapshotInfo loaded = load_cache_snapshot(path, b);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.responses, 1u);
  const auto r = b.responses.find("resp-key");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->header, out->header);
  EXPECT_EQ(r->table, out->table);
  EXPECT_EQ(r->manifest_pretty, out->manifest_pretty);
  EXPECT_EQ(r->manifest_compact, out->manifest_compact);  // embedded NUL survives
  std::remove(path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Persistence, RandomMutationsAreRejectedWholesale) {
  // Every seeded flip, insert, delete or truncation of a valid snapshot —
  // header, build string, checksum or payload — must be rejected with a
  // one-line reason, leaving the caches empty: a cold start, never a
  // partially restored or wrong cache.
  const std::string path = temp_path("mutated");
  ServerCaches a(64u << 20);
  for (int i = 0; i < 3; ++i) {
    auto out = std::make_shared<ScenarioOutput>();
    out->header = "# header " + std::to_string(i) + "\n";
    out->table = "size iters\n1 KiB 2\n";
    out->manifest_pretty = "{\n  \"id\": " + std::to_string(i) + "\n}\n";
    out->manifest_compact = "{\"id\":" + std::to_string(i) + "}";
    a.responses.insert("key-" + std::to_string(i), out, out->cost_bytes());
  }
  ASSERT_TRUE(save_cache_snapshot(path, a).ok);
  const std::string valid = slurp(path);
  ASSERT_FALSE(valid.empty());

  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    spill(path, test::mutate_once(valid, rng));
    ServerCaches b(64u << 20);
    SnapshotInfo info;
    ASSERT_NO_THROW(info = load_cache_snapshot(path, b)) << "mutation " << i;
    EXPECT_FALSE(info.ok) << "mutation " << i;
    EXPECT_FALSE(info.error.empty()) << "mutation " << i;
    EXPECT_EQ(info.error.find('\n'), std::string::npos) << info.error;
    EXPECT_EQ(b.responses.stats().entries, 0u) << "mutation " << i;
  }
  std::remove(path.c_str());
}

TEST(Persistence, FormatV1SnapshotIsAColdStartWithOneLineError) {
  // Format 1 also carried cell samples; a v1 file left by an older build
  // is refused on its version field and the server starts cold.
  const std::string path = temp_path("v1");
  ServerCaches a(64u << 20);
  auto out = std::make_shared<ScenarioOutput>();
  out->manifest_compact = "{\"x\":1}";
  a.responses.insert("k", out, 64);
  ASSERT_TRUE(save_cache_snapshot(path, a).ok);
  std::string bytes = slurp(path);
  const std::uint32_t v1 = 1;
  bytes.replace(8, sizeof(v1), reinterpret_cast<const char*>(&v1), sizeof(v1));  // after magic
  spill(path, bytes);

  ServeOptions o;
  o.cache_bytes = 64u << 20;
  o.cache_file = path;
  o.snapshot_every = 0;
  ServeResult r;
  const std::string cold_input = std::string(kFastQuery) + "\n";
  const std::string answered = run_loop(cold_input, o, &r);
  EXPECT_FALSE(r.counters.snapshot_loaded);
  EXPECT_EQ(r.counters.snapshot_entries, 0u);
  EXPECT_NE(r.counters.snapshot_error.find("format version 1"), std::string::npos)
      << r.counters.snapshot_error;
  EXPECT_EQ(r.counters.snapshot_error.find('\n'), std::string::npos);
  ServeOptions plain;
  plain.cache_bytes = 64u << 20;
  EXPECT_EQ(answered, run_loop(cold_input, plain));  // recomputed, same bytes
  std::remove(path.c_str());
}

TEST(Persistence, RejectsCorruptionWholesaleAndLeavesCachesCold) {
  const std::string path = temp_path("corrupt");
  ServerCaches a(64u << 20);
  auto out = std::make_shared<ScenarioOutput>();
  out->manifest_compact = "{\"x\":1}";
  a.responses.insert("k", out, 64);
  ASSERT_TRUE(save_cache_snapshot(path, a).ok);

  // Flip one payload byte: the checksum must reject the whole file.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 3] ^= 0x40;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  ServerCaches b(64u << 20);
  const SnapshotInfo info = load_cache_snapshot(path, b);
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error.find("checksum"), std::string::npos) << info.error;
  EXPECT_EQ(b.responses.stats().entries, 0u);  // untouched: cold start

  // Truncation anywhere is equally fatal.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_FALSE(load_cache_snapshot(path, b).ok);
  // Wrong magic (e.g. an unrelated file at the path).
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "this is not a snapshot";
  }
  const SnapshotInfo magic = load_cache_snapshot(path, b);
  EXPECT_FALSE(magic.ok);
  EXPECT_NE(magic.error.find("magic"), std::string::npos) << magic.error;
  // A control byte in the producer's build string stays escaped in the
  // one-line reason (the string follows magic, version, probe and length).
  bytes[8 + 4 + 4 + 8] = '\n';
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  const SnapshotInfo stale = load_cache_snapshot(path, b);
  EXPECT_FALSE(stale.ok);
  EXPECT_NE(stale.error.find("stale build '\\n"), std::string::npos) << stale.error;
  EXPECT_EQ(stale.error.find('\n'), std::string::npos) << stale.error;
  std::remove(path.c_str());
}

TEST(Persistence, MissingFileIsAColdStartNotAnError) {
  ServerCaches b(64u << 20);
  const SnapshotInfo info = load_cache_snapshot(temp_path("nonexistent"), b);
  EXPECT_FALSE(info.ok);
  EXPECT_EQ(info.error, "missing");
}

TEST(Persistence, WarmFromDiskAnswersAreByteIdenticalToWarmInMemory) {
  const std::string path = temp_path("warm");
  std::remove(path.c_str());
  const std::string input = std::string(kFastQuery) + "\n";

  ServeOptions o;
  o.cache_bytes = 64u << 20;
  o.cache_file = path;
  o.snapshot_every = 1;
  ServeResult r1;
  const std::string cold = run_loop(input, o, &r1);
  EXPECT_FALSE(r1.counters.snapshot_loaded);  // nothing on disk yet
  EXPECT_GE(r1.counters.snapshots_saved, 1u);

  // Fresh process ≈ fresh loop: caches start empty, warm from the snapshot.
  ServeResult r2;
  const std::string warm = run_loop(input, o, &r2);
  EXPECT_TRUE(r2.counters.snapshot_loaded) << r2.counters.snapshot_error;
  EXPECT_GT(r2.counters.snapshot_entries, 0u);
  EXPECT_EQ(warm, cold);  // the whole point of persisting

  // Corrupt the snapshot: the server must fall back to a cold start and
  // still produce the same bytes by recomputation.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-2, std::ios::end);
    f.put('\x7f');
  }
  ServeResult r3;
  const std::string recovered = run_loop(input, o, &r3);
  EXPECT_FALSE(r3.counters.snapshot_loaded);
  EXPECT_FALSE(r3.counters.snapshot_error.empty());
  EXPECT_EQ(recovered, cold);
  std::remove(path.c_str());
}

#if defined(__unix__) || defined(__APPLE__)

// --- live socket server under hostile clients -------------------------------

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all_fd(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read `count` newline-terminated lines; empty return on EOF/shortfall.
std::string read_lines_fd(int fd, int count) {
  std::string out;
  int seen = 0;
  char buf[65536];
  while (seen < count) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::string();
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') ++seen;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[65536];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

struct SocketServer {
  std::string path;
  ServeOptions options;
  std::thread thread;
  ServeResult result;
  std::string error;
  bool ok = false;

  explicit SocketServer(const std::string& stem, ServeOptions o)
      : path(temp_path(stem) + ".sock"), options(o) {
    std::remove(path.c_str());
    thread = std::thread([this] { ok = serve_socket(path, options, result, error); });
    // The listener is up once a connect succeeds.
    for (int tries = 0; tries < 500; ++tries) {
      const int fd = connect_unix(path);
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server never came up on " << path;
  }

  void shutdown_and_join() {
    const int fd = connect_unix(path);
    if (fd >= 0) {
      send_all_fd(fd, "{\"control\":\"shutdown\",\"id\":0}\n");
      read_lines_fd(fd, 1);
      ::close(fd);
    }
    thread.join();
  }

  ~SocketServer() {
    if (thread.joinable()) thread.join();
    std::remove(path.c_str());
  }
};

ServeOptions socket_options() {
  ServeOptions o;
  o.jobs = 2;
  o.cache_bytes = 64u << 20;
  return o;
}

TEST(ServeChaosSocket, ConcurrentConnectionsGetIdenticalOrderedStreams) {
  SocketServer server("storm", socket_options());
  std::string request;
  for (int i = 0; i < 4; ++i) {
    request += R"({"id": )" + std::to_string(i) +
               R"(, "op": "pingpong", "gpus": 2, "min": 1024, "max": 1024, "iters": 2, "seed": )" +
               std::to_string(42 + i) + "}\n";
  }
  constexpr int kConns = 6;
  std::vector<std::string> responses(kConns);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      // No gtest asserts off the main thread: failures surface as empty
      // response strings, which the comparisons below reject.
      const int fd = connect_unix(server.path);
      if (fd < 0) return;
      if (send_all_fd(fd, request)) {
        responses[static_cast<std::size_t>(c)] = read_lines_fd(fd, 4);
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_FALSE(responses[0].empty());
  for (int c = 1; c < kConns; ++c) {
    // Same request stream => byte-identical response stream per connection,
    // regardless of how 6 connections interleaved over 2 workers.
    EXPECT_EQ(responses[static_cast<std::size_t>(c)], responses[0]) << c;
  }
  // Per-connection request order: ids come back 0,1,2,3.
  const auto lines = lines_of(responses[0]);
  ASSERT_EQ(lines.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\":" + std::to_string(i) + ","),
              std::string::npos);
  }
  server.shutdown_and_join();
  EXPECT_TRUE(server.ok) << server.error;
  EXPECT_TRUE(server.result.shutdown);
}

TEST(ServeChaosSocket, SlowLorisAndPartialWritesAreReassembled) {
  SocketServer server("loris", socket_options());
  const std::string query = std::string(kFastQuery) + "\n";

  // Dribble one byte at a time: the server must frame across partial reads.
  const int fd = connect_unix(server.path);
  ASSERT_GE(fd, 0);
  for (const char c : query) {
    ASSERT_TRUE(send_all_fd(fd, std::string(1, c)));
  }
  const std::string reply = read_lines_fd(fd, 1);
  ::close(fd);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;

  // A half-written line abandoned forever must not block other clients.
  const int loris = connect_unix(server.path);
  ASSERT_GE(loris, 0);
  ASSERT_TRUE(send_all_fd(loris, query.substr(0, query.size() / 2)));
  const int other = connect_unix(server.path);
  ASSERT_GE(other, 0);
  ASSERT_TRUE(send_all_fd(other, "{\"control\":\"ping\",\"id\":7}\n"));
  EXPECT_NE(read_lines_fd(other, 1).find("\"control\":\"ping\""), std::string::npos);
  ::close(other);
  ::close(loris);
  server.shutdown_and_join();
}

TEST(ServeChaosSocket, DroppedConnectionMidQueryIsDiscardedSafely) {
  SocketServer server("drop", socket_options());
  for (int round = 0; round < 3; ++round) {
    const int fd = connect_unix(server.path);
    ASSERT_GE(fd, 0);
    send_all_fd(fd, std::string(kSlowQuery) + "\n");
    ::close(fd);  // vanish with the answer still in flight
  }
  // The server keeps answering; in-flight results for dead connections are
  // dropped, not delivered to dangling fds.
  const int fd = connect_unix(server.path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all_fd(fd, std::string(kFastQuery) + "\n"));
  EXPECT_NE(read_lines_fd(fd, 1).find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.shutdown_and_join();
  EXPECT_TRUE(server.ok) << server.error;
}

TEST(ServeChaosSocket, OversizedLineAnswersErrorThenClosesConnection) {
  ServeOptions o = socket_options();
  o.max_line_bytes = 128;
  SocketServer server("oversize", o);
  const int fd = connect_unix(server.path);
  ASSERT_GE(fd, 0);
  send_all_fd(fd, std::string(4096, 'a') + "\n" + kFastQuery + "\n");
  const std::string all = read_to_eof(fd);  // server closes after the error
  ::close(fd);
  const auto lines = lines_of(all);
  ASSERT_EQ(lines.size(), 1u) << all;
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[0].find("serve-max-line-bytes"), std::string::npos);
  // Other clients are unaffected.
  const int fd2 = connect_unix(server.path);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all_fd(fd2, "{\"control\":\"ping\",\"id\":1}\n"));
  EXPECT_NE(read_lines_fd(fd2, 1).find("\"control\":\"ping\""), std::string::npos);
  ::close(fd2);
  server.shutdown_and_join();
  EXPECT_GE(server.result.counters.line_overflows, 1u);
  EXPECT_GE(server.result.counters.connections_dropped, 1u);
}

TEST(ServeChaosSocket, ShutdownDrainsInFlightWorkAndReportsTally) {
  SocketServer server("drain", socket_options());
  const int fd = connect_unix(server.path);
  ASSERT_GE(fd, 0);
  std::string request;
  for (int i = 0; i < 3; ++i) {
    request += R"({"id": )" + std::to_string(i) +
               R"(, "op": "pingpong", "gpus": 2, "min": 1024, "max": 1024, "iters": 2})" +
               "\n";
  }
  request += "{\"control\":\"shutdown\",\"id\":9}\n";
  ASSERT_TRUE(send_all_fd(fd, request));
  const auto lines = lines_of(read_lines_fd(fd, 4));
  ASSERT_EQ(lines.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find("\"ok\":true"),
              std::string::npos);
  }
  // The shutdown response is a barrier: it reports every earlier query as
  // drained, because they all finished before it rendered.
  EXPECT_NE(lines[3].find("\"control\":\"shutdown\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"drained\":3"), std::string::npos) << lines[3];
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.ok) << server.error;
  EXPECT_TRUE(server.result.shutdown);
  EXPECT_EQ(server.result.counters.answered, 3u);
  // The socket path is unlinked: no new connections after drain.
  EXPECT_LT(connect_unix(server.path), 0);
}

TEST(ServeChaosSocket, SigtermDrainsLikeShutdown) {
  SocketServer server("sigterm", socket_options());
  const int fd = connect_unix(server.path);
  ASSERT_GE(fd, 0);
  // Round-trip a ping first: proves the poll loop (and thus the SIGTERM
  // handler) is live before the signal fires.
  ASSERT_TRUE(send_all_fd(fd, "{\"control\":\"ping\",\"id\":1}\n"));
  ASSERT_FALSE(read_lines_fd(fd, 1).empty());
  ASSERT_TRUE(send_all_fd(fd, std::string(kFastQuery) + "\n"));
  // Give the poll loop time to read and submit the query, so the signal
  // lands with the work genuinely in flight (draining abandons *unread*
  // bytes by design — that is the client's loss, not the server's).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ::kill(::getpid(), SIGTERM);
  // The in-flight query still completes and flushes before the server exits.
  EXPECT_NE(read_lines_fd(fd, 1).find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.ok) << server.error;
  EXPECT_FALSE(server.result.shutdown);  // drained by signal, not control
  EXPECT_EQ(server.result.counters.answered, 1u);
}

TEST(ServeChaosSocket, RestartWarmsFromSnapshotWithIdenticalBytes) {
  const std::string snap = temp_path("sock_snap");
  std::remove(snap.c_str());
  ServeOptions o = socket_options();
  o.cache_file = snap;
  o.snapshot_every = 1;
  const std::string query = std::string(kFastQuery) + "\n";

  std::string cold;
  {
    SocketServer server("persist1", o);
    const int fd = connect_unix(server.path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all_fd(fd, query));
    cold = read_lines_fd(fd, 1);
    ASSERT_FALSE(cold.empty());
    ::close(fd);
    server.shutdown_and_join();
    ASSERT_TRUE(server.ok) << server.error;
  }
  // "kill -9 then restart": a fresh server instance, warm only from disk.
  {
    SocketServer server("persist2", o);
    const int fd = connect_unix(server.path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all_fd(fd, query));
    const std::string warm = read_lines_fd(fd, 1);
    ::close(fd);
    EXPECT_EQ(warm, cold);  // byte-identical across the restart
    server.shutdown_and_join();
    EXPECT_TRUE(server.result.counters.snapshot_loaded)
        << server.result.counters.snapshot_error;
  }
  std::remove(snap.c_str());
}

#endif  // POSIX socket tests

}  // namespace
}  // namespace gpucomm::serve
