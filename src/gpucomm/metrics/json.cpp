#include "gpucomm/metrics/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace gpucomm::metrics {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  assert(res.ec == std::errc());
  std::string s(buf, res.ptr);
  // "1e+22" and "1E22" are valid JSON but "1." is not; to_chars never emits
  // a trailing dot, so the shortest form is embeddable as-is.
  return s;
}

void JsonWriter::newline_indent() {
  if (style_ == Style::kCompact) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::begin_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (top.count > 0) os_ << ',';
  ++top.count;
  newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  os_ << '{';
  stack_.push_back({false, 0});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!stack_.empty() && !stack_.back().is_array);
  const bool empty = stack_.back().count == 0;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  os_ << '[';
  stack_.push_back({true, 0});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!stack_.empty() && stack_.back().is_array);
  const bool empty = stack_.back().count == 0;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!stack_.empty() && !stack_.back().is_array && !pending_key_);
  Level& top = stack_.back();
  if (top.count > 0) os_ << ',';
  ++top.count;
  newline_indent();
  os_ << '"' << json_escape(k) << "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  begin_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  begin_value();
  os_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  begin_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  begin_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  begin_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  begin_value();
  os_ << "null";
  return *this;
}

}  // namespace gpucomm::metrics
