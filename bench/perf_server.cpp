// Wall-clock tracking for the scenario server (not a paper figure).
//
// Drives serve_loop in-process with a 1,000-query near-identical sweep
// (same scenario, single-size sweeps stepping 1 KiB apart) twice over one
// cache set: the first pass is all response-cache misses that share one
// cached topology, the second all response-cache hits. The two response
// streams must be byte-identical — that is the server's determinism
// contract — and the tracked quantity is the warm/cold queries-per-second
// ratio.
//
// A third pass (POSIX only) soaks the concurrent unix-socket transport:
// 8 connections each replay the full warm stream against the same caches,
// and every connection's response stream must be byte-identical to the
// stdio warm pass — the soak row tracks transport + concurrency overhead,
// not simulation cost. Every pass also reports the end-to-end latency
// percentiles of the server's always-on histograms. Emitted through --json
// so CI can archive the trend (BENCH_perf.json — informational, no gate).
#include <chrono>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "gpucomm/serve/socket.hpp"
#endif

using namespace gpucomm;
using namespace gpucomm::bench;

namespace {

constexpr int kQueries = 1000;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

#if defined(__unix__) || defined(__APPLE__)

constexpr int kSoakConnections = 8;

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

/// Replay `request` on one connection and return the full response stream
/// (empty on any transport failure — the caller compares byte-for-byte).
std::string replay_on_connection(const std::string& path, const std::string& request,
                                 std::size_t expect_lines) {
  const int fd = connect_unix(path);
  if (fd < 0) return std::string();
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::string();
    }
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  std::size_t seen = 0;
  char buf[65536];
  while (seen < expect_lines) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return std::string();
    }
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') ++seen;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

#endif

std::string query_stream() {
  std::ostringstream os;
  for (int i = 0; i < kQueries; ++i) {
    // Near-identical: only the (single-size) sweep bounds differ, so the
    // cold pass misses every response but shares the topology snapshot.
    const Bytes b = 4096 + static_cast<Bytes>(i) * 1024;
    os << "{\"id\":" << i << ",\"op\":\"pingpong\",\"mechanism\":\"mpi\",\"gpus\":2,"
       << "\"min\":" << b << ",\"max\":" << b << ",\"iters\":5}\n";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  gpucomm::bench::init(argc, argv);
  header("perf_server", "scenario server: queries/sec cold vs warm cache");

  const std::string queries = query_stream();
  serve::ServerCaches caches(256u << 20);
  serve::ServeOptions opts;
  opts.jobs = 1;
  opts.caches = &caches;

  std::istringstream cold_in(queries);
  std::ostringstream cold_out;
  const auto t_cold = std::chrono::steady_clock::now();
  const serve::ServeResult cold_result = serve::serve_loop(cold_in, cold_out, opts);
  const double cold_ms = ms_since(t_cold);

  std::istringstream warm_in(queries);
  std::ostringstream warm_out;
  const auto t_warm = std::chrono::steady_clock::now();
  const serve::ServeResult warm_result = serve::serve_loop(warm_in, warm_out, opts);
  const double warm_ms = ms_since(t_warm);

  if (cold_result.answered != kQueries || warm_result.answered != kQueries) {
    std::cerr << "error: expected " << kQueries << " answers per pass\n";
    return 1;
  }
  if (warm_out.str() != cold_out.str()) {
    std::cerr << "error: warm responses diverged from cold responses\n";
    return 1;
  }
  const auto hits = caches.responses.stats().hits;
  if (hits < kQueries) {
    std::cerr << "error: warm pass expected " << kQueries << " response hits, saw "
              << hits << "\n";
    return 1;
  }

  Table t({"pass", "queries", "wall_ms", "queries_per_s", "speedup"});
  t.add_row({"cold", std::to_string(kQueries), fmt(cold_ms, 0),
             fmt(1000.0 * kQueries / cold_ms, 0), "1.00"});
  t.add_row({"warm", std::to_string(kQueries), fmt(warm_ms, 0),
             fmt(1000.0 * kQueries / warm_ms, 0), fmt(cold_ms / warm_ms, 2)});

#if defined(__unix__) || defined(__APPLE__)
  // Socket soak: 8 connections replay the warm stream concurrently against
  // the same cache set. All-hits, so the row isolates the cost of the
  // concurrent transport itself.
  const std::string sock_path =
      "/tmp/gpucomm_perf_server_" + std::to_string(static_cast<long>(::getpid())) +
      ".sock";
  serve::ServeOptions sock_opts = opts;
  sock_opts.jobs = 2;
  // The clients blast their full streams without reading in step, so the
  // admission queue legitimately sees thousands of pending queries at once.
  // The soak measures throughput, not shedding (the chaos tests cover that):
  // lift the bound so every query runs.
  sock_opts.max_queue = 0;
  serve::ServeResult sock_result;
  std::string sock_error;
  std::thread server([&] {
    serve::serve_socket(sock_path, sock_opts, sock_result, sock_error);
  });
  for (int tries = 0; tries < 500; ++tries) {
    const int fd = connect_unix(sock_path);
    if (fd >= 0) {
      ::close(fd);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::vector<std::string> soak_out(kSoakConnections);
  const auto t_soak = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kSoakConnections; ++c) {
      clients.emplace_back([&, c] {
        soak_out[static_cast<std::size_t>(c)] =
            replay_on_connection(sock_path, queries, kQueries);
      });
    }
    for (std::thread& th : clients) th.join();
  }
  const double soak_ms = ms_since(t_soak);
  {
    const int fd = connect_unix(sock_path);
    if (fd >= 0) {
      const char* bye = "{\"control\":\"shutdown\",\"id\":0}\n";
      (void)!::write(fd, bye, std::strlen(bye));
      char sink[256];
      while (::read(fd, sink, sizeof(sink)) > 0) {
      }
      ::close(fd);
    }
  }
  server.join();
  for (const std::string& out : soak_out) {
    if (out != warm_out.str()) {
      const std::string& ref = warm_out.str();
      std::size_t i = 0;
      while (i < out.size() && i < ref.size() && out[i] == ref[i]) ++i;
      std::cerr << "error: soak diverged: got " << out.size() << " bytes, want "
                << ref.size() << ", first diff at " << i << "\n";
      std::cerr << "got:  " << out.substr(i > 40 ? i - 40 : 0, 120) << "\n";
      std::cerr << "want: " << ref.substr(i > 40 ? i - 40 : 0, 120) << "\n";
      return 1;
    }
  }
  const int soak_total = kSoakConnections * kQueries;
  t.add_row({"soak8", std::to_string(soak_total), fmt(soak_ms, 0),
             fmt(1000.0 * soak_total / soak_ms, 0),
             fmt((soak_total / soak_ms) / (kQueries / cold_ms), 2)});
#endif

  // End-to-end latency percentiles from the server's own histograms
  // (ServeResult::latency), recorded per pass.
  const auto e2e = [](const serve::ServeResult& r) {
    return r.latency.stage[static_cast<int>(serve::Stage::kE2e)];
  };
  Table lt({"pass", "e2e_count", "p50_us", "p90_us", "p99_us", "max_us"});
  const auto lat_row = [&](const char* pass, const serve::ServeResult& r) {
    const auto& s = e2e(r);
    lt.add_row({pass, std::to_string(s.count), fmt(s.p50_us, 0), fmt(s.p90_us, 0),
                fmt(s.p99_us, 0), fmt(s.max_us, 0)});
  };
  lat_row("cold", cold_result);
  lat_row("warm", warm_result);
#if defined(__unix__) || defined(__APPLE__)
  lat_row("soak8", sock_result);
#endif

  show(t, "perf_server");
  show(lt, "perf_server_latency");
  std::cout << "(responses byte-identical across passes; "
            << hits << " response-cache hits)\n";
  return 0;
}
