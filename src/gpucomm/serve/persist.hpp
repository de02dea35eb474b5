// Crash-safe persistence for the scenario server's exact-compare caches.
//
// A snapshot file carries the response cache, whose values are pure data
// (rendered header/table/manifest strings) bit-identical to recomputation,
// so a warm-from-disk answer is byte-identical to a warm-in-memory answer
// by construction. The topology cache holds pointer-laden objects; it is
// deliberately NOT persisted — topologies rebuild in milliseconds and every
// answer they feed into is covered by the persisted responses.
//
// File format (host-endian; the header detects a foreign byte order):
//
//   magic            8 bytes  "GCCACHE1"
//   format_version   u32      currently 2 (1 also carried cell samples)
//   endian_probe     u32      0x01020304 as written by the producing host
//   build_version    string   metrics::build_version() of the producer
//   payload_bytes    u64
//   payload_fnv1a64  u64      FNV-1a 64 over the payload bytes
//   payload:
//     u64 n_responses; n x { string key; string header; string table;
//                            string manifest_pretty; string manifest_compact }
//
// Strings are u64-length-prefixed raw bytes, so values round-trip
// byte-for-byte.
//
// Validation on load is all-or-nothing: a wrong magic/format/endianness, a
// build_version that differs from this binary (responses embed the build
// version, so a stale snapshot would serve wrong manifests), a checksum
// mismatch, or any truncation rejects the whole file with a one-line reason
// and leaves the caches untouched — the server falls back to a cold start,
// never to wrong answers.
//
// Saves are atomic against kill -9: the snapshot is written to a sibling
// temp file and rename(2)d into place, so a reader only ever sees either
// the previous complete snapshot or the new complete snapshot.
#pragma once

#include <cstdint>
#include <string>

namespace gpucomm::serve {

class ServerCaches;

struct SnapshotInfo {
  bool ok = false;
  /// Response entries saved/loaded.
  std::uint64_t responses = 0;
  /// One-line reason when !ok ("checksum mismatch", "stale build ...", ...).
  std::string error;
};

/// Serialize the response cache to `path` (temp file + rename).
SnapshotInfo save_cache_snapshot(const std::string& path, const ServerCaches& caches);

/// Validate and load a snapshot into `caches`. Rejects corrupt or stale
/// files wholesale (caches untouched, `error` says why). A missing file is
/// a rejection with error "missing" — callers treat it as a cold start.
SnapshotInfo load_cache_snapshot(const std::string& path, ServerCaches& caches);

}  // namespace gpucomm::serve
