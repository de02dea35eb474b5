// Replay client for the scenario server's unix-socket transport. It sends
// the query lines from --in (or --queries canned ones) round-robin across
// --connections concurrent connections, collects each connection's
// responses in order, and writes them grouped by connection to --out (or
// stdout). The same input against any server state — cold, warm, or
// restarted from a cache snapshot — must produce a byte-identical file, so
// the file is the comparison artifact of CI's chaos-smoke job. The hostile
// clients (connect storms, malformed lines, slow-loris dribbles, dropped
// connections) are in-process tests in tests/test_serve_chaos.cpp.
//
// Exit status: 0 = every connection got all its responses, 1 = a
// connection failed to connect or lost its responses, 2 = usage error or
// unreadable/unwritable file.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

namespace {

struct Options {
  std::string socket_path;
  int connections = 1;
  int queries = 8;
  std::string in_path;
  std::string out_path;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--connections 1-64] [--queries 1-4096]\n"
               "  [--in FILE] [--out FILE]\n",
               argv0);
  return 2;
}

/// A decimal integer in [min, max] and nothing else ("8x" is rejected).
bool parse_count(const char* s, long min, long max, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (*s == '\0' || errno != 0 || *end != '\0' || v < min || v > max) return false;
  out = static_cast<int>(v);
  return true;
}

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

bool send_all(int fd, const std::string& bytes) {
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

/// Read exactly `count` newline-terminated lines (with terminators) into
/// `out`. Returns false on EOF/error before the count is reached.
bool read_lines(int fd, int count, std::string& out) {
  int seen = 0;
  char buf[65536];
  while (seen < count) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') ++seen;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return seen == count;  // protocol violation if we overshot mid-buffer
}

/// Cheap deterministic scenario queries: tiny single-size cell runs so a
/// replay measures the server, not the simulator.
std::vector<std::string> canned_queries(int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const long bytes = 1024l << (i % 4);
    out.push_back("{\"id\":" + std::to_string(i) +
                  ",\"op\":\"pingpong\",\"gpus\":2,\"min\":" + std::to_string(bytes) +
                  ",\"max\":" + std::to_string(bytes) +
                  ",\"iters\":4,\"seed\":" + std::to_string(42 + i % 8) +
                  ",\"harness\":\"cells\"}");
  }
  return out;
}

int run_replay(const Options& o) {
  std::vector<std::string> queries;
  if (!o.in_path.empty()) {
    std::ifstream f(o.in_path);
    if (!f) {
      std::fprintf(stderr, "chaos: cannot read %s\n", o.in_path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(f, line)) {
      if (!line.empty()) queries.push_back(line);
    }
  } else {
    queries = canned_queries(o.queries);
  }
  // Round-robin the lines across connections; each connection's responses
  // come back in its own request order, so grouping by connection index
  // makes the whole artifact deterministic.
  std::vector<std::vector<std::string>> per_conn(
      static_cast<std::size_t>(o.connections));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    per_conn[i % per_conn.size()].push_back(queries[i]);
  }
  std::vector<std::string> responses(per_conn.size());
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::string err;
  for (std::size_t c = 0; c < per_conn.size(); ++c) {
    threads.emplace_back([&, c] {
      const int fd = connect_unix(o.socket_path);
      if (fd < 0) {
        const std::lock_guard<std::mutex> lock(err_mu);
        err = "connect failed";
        return;
      }
      std::string request;
      for (const std::string& q : per_conn[c]) request += q + "\n";
      if (!send_all(fd, request) ||
          !read_lines(fd, static_cast<int>(per_conn[c].size()), responses[c])) {
        const std::lock_guard<std::mutex> lock(err_mu);
        err = "connection " + std::to_string(c) + " lost mid-replay";
      }
      ::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  if (!err.empty()) {
    std::fprintf(stderr, "chaos replay: %s\n", err.c_str());
    return 1;
  }
  std::string artifact;
  for (const std::string& r : responses) artifact += r;
  if (!o.out_path.empty()) {
    std::ofstream f(o.out_path, std::ios::binary | std::ios::trunc);
    if (!f || !(f << artifact)) {
      std::fprintf(stderr, "chaos: cannot write %s\n", o.out_path.c_str());
      return 2;
    }
  } else {
    std::fwrite(artifact.data(), 1, artifact.size(), stdout);
  }
  std::fprintf(stderr, "chaos replay: %zu queries over %d connections OK\n",
               queries.size(), o.connections);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A server that dies mid-replay must come back as a failed write (exit 1),
  // not as SIGPIPE killing the client.
  ::signal(SIGPIPE, SIG_IGN);
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--socket") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      o.socket_path = v;
    } else if (flag == "--connections") {
      // One thread per connection: the bound caps the threads started.
      const char* v = value();
      if (v == nullptr || !parse_count(v, 1, 64, o.connections)) {
        std::fprintf(stderr, "chaos: --connections requires an integer in [1, 64]\n");
        return usage(argv[0]);
      }
    } else if (flag == "--queries") {
      const char* v = value();
      if (v == nullptr || !parse_count(v, 1, 4096, o.queries)) {
        std::fprintf(stderr, "chaos: --queries requires an integer in [1, 4096]\n");
        return usage(argv[0]);
      }
    } else if (flag == "--in") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      o.in_path = v;
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      o.out_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.socket_path.empty()) return usage(argv[0]);
  return run_replay(o);
}

#else  // no AF_UNIX

int main(int, char** argv) {
  std::fprintf(stderr, "%s: unix sockets are not supported on this platform\n",
               argv[0]);
  return 2;
}

#endif
