#include "gpucomm/serve/persist.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "gpucomm/metrics/json.hpp"
#include "gpucomm/metrics/version.hpp"
#include "gpucomm/serve/scenario.hpp"

namespace gpucomm::serve {

namespace {

constexpr char kMagic[8] = {'G', 'C', 'C', 'A', 'C', 'H', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::uint32_t kEndianProbe = 0x01020304u;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- writer -----------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

// --- bounds-checked reader --------------------------------------------------

class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!u64(n) || n > remaining()) return false;
    s.assign(p_, n);
    p_ += n;
    return true;
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

 private:
  bool raw(void* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }
  const char* p_;
  const char* end_;
};

SnapshotInfo reject(const std::string& why) {
  SnapshotInfo info;
  info.error = why;
  return info;
}

}  // namespace

SnapshotInfo save_cache_snapshot(const std::string& path, const ServerCaches& caches) {
  SnapshotInfo info;

  std::string payload;
  const auto responses = caches.responses.export_entries();
  put_u64(payload, responses.size());
  for (const auto& e : responses) {
    put_string(payload, e.key);
    put_string(payload, e.value->header);
    put_string(payload, e.value->table);
    put_string(payload, e.value->manifest_pretty);
    put_string(payload, e.value->manifest_compact);
  }

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  put_u32(file, kFormatVersion);
  put_u32(file, kEndianProbe);
  put_string(file, metrics::build_version());
  put_u64(file, payload.size());
  put_u64(file, fnv1a64(payload));
  file.append(payload);

  // Atomic against kill -9: a reader only ever sees a complete snapshot.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f || !f.write(file.data(), static_cast<std::streamsize>(file.size())) ||
        !f.flush()) {
      return reject("cannot write " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return reject("cannot rename " + tmp + " into place");
  }
  info.ok = true;
  info.responses = responses.size();
  return info;
}

SnapshotInfo load_cache_snapshot(const std::string& path, ServerCaches& caches) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return reject("missing");
  std::string file((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  if (!f.good() && !f.eof()) return reject("cannot read " + path);

  if (file.size() < sizeof(kMagic)) return reject("truncated header");
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) return reject("bad magic");
  Cursor c(file.data() + sizeof(kMagic), file.size() - sizeof(kMagic));
  std::uint32_t version = 0, endian = 0;
  if (!c.u32(version) || !c.u32(endian)) return reject("truncated header");
  if (version != kFormatVersion) {
    return reject("format version " + std::to_string(version) + " (want " +
                  std::to_string(kFormatVersion) + ")");
  }
  if (endian != kEndianProbe) return reject("foreign byte order");
  std::string build;
  if (!c.str(build)) return reject("truncated header");
  if (build != metrics::build_version()) {
    // Responses embed the build version in their manifests; serving them
    // from another build would violate the byte-identity contract.
    // Escaped: the file's bytes must not be able to split the one-line error.
    return reject("stale build '" + metrics::json_escape(build) + "' (this binary is '" +
                  metrics::build_version() + "')");
  }
  std::uint64_t payload_bytes = 0, checksum = 0;
  if (!c.u64(payload_bytes) || !c.u64(checksum)) return reject("truncated header");
  if (payload_bytes != c.remaining()) return reject("truncated payload");
  const std::string payload = file.substr(file.size() - payload_bytes);
  if (fnv1a64(payload) != checksum) return reject("checksum mismatch");

  // Parse everything before touching the caches: a malformed payload that
  // passed the checksum (a bug, not corruption) still leaves them intact.
  Cursor p(payload.data(), payload.size());
  std::uint64_t n_responses = 0;
  if (!p.u64(n_responses)) return reject("truncated responses");
  std::vector<std::pair<std::string, std::shared_ptr<ScenarioOutput>>> responses;
  for (std::uint64_t i = 0; i < n_responses; ++i) {
    std::string key;
    auto out = std::make_shared<ScenarioOutput>();
    if (!p.str(key) || !p.str(out->header) || !p.str(out->table) ||
        !p.str(out->manifest_pretty) || !p.str(out->manifest_compact)) {
      return reject("truncated response entry");
    }
    responses.emplace_back(std::move(key), std::move(out));
  }
  if (!p.done()) return reject("trailing bytes after payload");

  SnapshotInfo info;
  for (auto& [key, value] : responses) {
    const std::size_t cost = value->cost_bytes();
    caches.responses.insert(key, std::move(value), cost);
  }
  info.ok = true;
  info.responses = n_responses;
  return info;
}

}  // namespace gpucomm::serve
