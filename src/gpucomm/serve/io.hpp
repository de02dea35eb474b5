// Low-level byte/line plumbing shared by the serve transports.
//
// The JSON-lines protocol frames every request and response with '\n', so
// both transports need the same two guarantees at the byte layer:
//
//  - Reads are *bounded*: an unterminated or gigantic request line must cost
//    a fixed amount of memory and yield one `ok:false` response, never
//    unbounded buffering. Both transports frame through LineSplitter.
//  - Writes are *complete*: a response line must reach the peer whole.
//    write(2) may return short or fail with EINTR at any time; write_some
//    retries EINTR and reports how far it got, and the socket poll loop
//    keeps the rest buffered, so a partial write can never truncate a
//    response mid-line.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gpucomm::serve {

/// Incremental newline framing with a hard per-line byte bound.
///
/// feed() consumes raw bytes and appends completed lines (without their
/// terminator) to `out`. A line that exceeds the bound produces exactly one
/// entry with `overflow == true` at the moment the bound is crossed; the
/// rest of that line — up to and including its eventual newline — is
/// discarded without being stored, so a slow-loris or never-terminated line
/// costs O(max_line_bytes), not O(input).
class LineSplitter {
 public:
  struct Line {
    std::string text;  // empty when overflow
    bool overflow = false;
  };

  explicit LineSplitter(std::size_t max_line_bytes) : max_(max_line_bytes) {}

  void feed(const char* data, std::size_t n, std::vector<Line>& out) {
    for (std::size_t i = 0; i < n; ++i) {
      const char c = data[i];
      if (c == '\n') {
        if (discarding_) {
          discarding_ = false;  // overflow already reported
        } else {
          out.push_back(Line{std::move(buf_), false});
        }
        buf_.clear();
        continue;
      }
      if (discarding_) continue;
      if (buf_.size() >= max_) {
        buf_.clear();
        discarding_ = true;
        out.push_back(Line{std::string(), true});
        continue;
      }
      buf_.push_back(c);
    }
  }

  /// Unterminated trailing bytes (used at EOF: getline semantics treat a
  /// final unterminated fragment as a line).
  std::string take_partial() {
    std::string s = std::move(buf_);
    buf_.clear();
    return s;
  }
  bool discarding() const { return discarding_; }

 private:
  std::string buf_;
  std::size_t max_;
  bool discarding_ = false;
};

#if defined(__unix__) || defined(__APPLE__)

/// Write as much as possible to a nonblocking fd. Retries EINTR; stops at
/// EAGAIN/EWOULDBLOCK. Returns bytes written (possibly 0), or -1 on a real
/// error. `to_socket` uses send(MSG_NOSIGNAL) so a vanished peer yields
/// EPIPE instead of killing the process with SIGPIPE.
long write_some(int fd, const char* data, std::size_t n, bool to_socket);

#endif

}  // namespace gpucomm::serve
