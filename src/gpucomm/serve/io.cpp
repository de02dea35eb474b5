#include "gpucomm/serve/io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace gpucomm::serve {

#if defined(__unix__) || defined(__APPLE__)

long write_some(int fd, const char* data, std::size_t n, bool to_socket) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = to_socket
#ifdef MSG_NOSIGNAL
                          ? ::send(fd, data + off, n - off, MSG_NOSIGNAL)
#else
                          ? ::send(fd, data + off, n - off, 0)
#endif
                          : ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return -1;
    }
    if (w == 0) break;
    off += static_cast<std::size_t>(w);
  }
  return static_cast<long>(off);
}

#endif

}  // namespace gpucomm::serve
