// Minimal deterministic JSON emission for run artifacts.
//
// JsonWriter streams structurally-correct JSON: commas and indentation are
// managed by a state stack, strings are escaped, and doubles are rendered
// with std::to_chars shortest round-trip form, so the same data always
// produces byte-identical output (the determinism the BENCH_*.json perf
// trajectory and --metrics-out artifacts rely on). Reading JSON back is
// serve::parse_json's job (serve/json_value.hpp), the one strict parser
// that tests and gpucomm_jsonv check emitted documents with.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace gpucomm::metrics {

/// Escape a string for embedding between JSON quotes.
std::string json_escape(std::string_view s);

/// Shortest round-trip decimal form of a double ("0.1", not "0.1000000...");
/// non-finite values render as null (JSON has no NaN/Inf).
std::string json_number(double v);

class JsonWriter {
 public:
  /// kPretty is the two-space-indented multi-line form every artifact file
  /// uses; kCompact emits the same document with no newlines or indentation
  /// (single-line, for the serve subsystem's JSON-lines responses).
  enum class Style { kPretty, kCompact };

  /// Writes to `os`; emit exactly one top-level value.
  explicit JsonWriter(std::ostream& os, Style style = Style::kPretty)
      : os_(os), style_(style) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key of the next value inside an object.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key(k) + value(v) in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

 private:
  /// Comma/newline/indent bookkeeping before emitting a value or key.
  void begin_value();
  void newline_indent();

  std::ostream& os_;
  Style style_;
  struct Level {
    bool is_array = false;
    int count = 0;
  };
  std::vector<Level> stack_;
  bool pending_key_ = false;
};

}  // namespace gpucomm::metrics
