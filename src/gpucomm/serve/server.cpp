#include "gpucomm/serve/server.hpp"

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "gpucomm/serve/core.hpp"
#include "gpucomm/serve/io.hpp"

namespace gpucomm::serve {

// The stdio transport: one blocking reader thread shoveling lines into the
// shared engine (serve/core.hpp). One flush per line so a piping client
// never stalls on a buffered reply.
ServeResult serve_loop(std::istream& in, std::ostream& out, const ServeOptions& options) {
  ServeResult result;
  ServerCore core(options, /*always_pool=*/false);
  const auto writer = std::make_shared<OrderedWriter>([&out](const std::string& framed) {
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    out.flush();
  });

  std::uint64_t seq = 0;
  // False once a shutdown control has been handed to the core.
  const auto take = [&](const LineSplitter::Line& line) {
    if (line.overflow) {
      // One error response; the splitter drops the rest of the line. Unlike
      // the socket transport we keep the stream open: stdin is the
      // process's only client, closing it would end the server.
      core.answer_line_overflow(writer, seq++);
      return true;
    }
    if (line.text.find_first_not_of(" \t\r") == std::string::npos) return true;
    return core.handle_line(writer, seq++, line.text) != ServerCore::LineAction::kShutdown;
  };
  LineSplitter splitter(options.max_line_bytes);
  std::vector<LineSplitter::Line> lines;
  bool open = true;
  // Byte by byte: a bulk read would block on a client that waits for its
  // reply before sending the next line.
  for (int ch; open && (ch = in.get()) != std::char_traits<char>::eof();) {
    const char c = static_cast<char>(ch);
    splitter.feed(&c, 1, lines);
    for (const LineSplitter::Line& line : lines) open = open && take(line);
    lines.clear();
  }
  // getline semantics: an unterminated final line still counts.
  if (open) open = take({splitter.take_partial(), false});
  result.shutdown = !open;
  core.drain();
  result.answered = static_cast<std::size_t>(writer->written());
  result.counters = core.counters();
  result.latency = core.latency_stats();
  return result;
}

}  // namespace gpucomm::serve
