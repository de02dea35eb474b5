// Seeded byte-level mutations for the randomized-input tests of the text
// and binary parsers (JSON queries, fault schedules, cache snapshots).
// Every mutation comes from a gpucomm::Rng stream, so a failing input is
// replayed exactly by rerunning the test.
#pragma once

#include <cstdint>
#include <string>

#include "gpucomm/sim/random.hpp"

namespace gpucomm::test {

/// One mutation of `in`: flip one byte (XOR with a nonzero mask), insert one
/// random byte, delete one byte, or truncate to a strict prefix. The result
/// always differs from a non-empty `in`.
inline std::string mutate_once(const std::string& in, Rng& rng) {
  std::string out = in;
  const std::uint64_t kind = rng.uniform_int(4);
  if (kind == 1 || out.empty()) {
    const std::size_t at = static_cast<std::size_t>(rng.uniform_int(out.size() + 1));
    out.insert(at, 1, static_cast<char>(rng.uniform_int(256)));
    return out;
  }
  const std::size_t at = static_cast<std::size_t>(rng.uniform_int(out.size()));
  if (kind == 0) {
    out[at] = static_cast<char>(out[at] ^ static_cast<char>(1 + rng.uniform_int(255)));
  } else if (kind == 2) {
    out.erase(at, 1);
  } else {
    out.resize(at);
  }
  return out;
}

/// One to `max_rounds` stacked mutations of `in`.
inline std::string mutate(const std::string& in, Rng& rng, int max_rounds = 4) {
  std::string out = in;
  const std::uint64_t rounds = 1 + rng.uniform_int(static_cast<std::uint64_t>(max_rounds));
  for (std::uint64_t i = 0; i < rounds; ++i) out = mutate_once(out, rng);
  return out;
}

}  // namespace gpucomm::test
