#include "gpucomm/serve/json_value.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace gpucomm::serve {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v(Kind::kBool);
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d, std::optional<std::int64_t> i) {
  JsonValue v(Kind::kNumber);
  v.number_ = d;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v(Kind::kString);
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v(Kind::kArray);
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v(Kind::kObject);
  v.members_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser over the RFC 8259 grammar, with values
/// materialized and duplicate keys rejected.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string& error) {
    skip_ws();
    std::optional<JsonValue> v = value();
    if (v.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        set_err("trailing characters after top-level value");
        v.reset();
      }
    }
    if (!v.has_value()) {
      error = (err_.empty() ? "invalid JSON" : err_) + " at byte " + std::to_string(err_pos_);
    }
    return v;
  }

 private:
  void set_err(const char* what) {
    if (err_.empty()) {
      err_ = what;
      err_pos_ = pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::optional<JsonValue> literal(std::string_view lit, JsonValue v) {
    if (text_.substr(pos_, lit.size()) != lit) {
      set_err("invalid literal");
      return std::nullopt;
    }
    pos_ += lit.size();
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::optional<std::string> string() {
    if (!eat('"')) {
      set_err("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) {
        --pos_;
        set_err("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              set_err("bad \\u escape");
              return std::nullopt;
            }
            const char h = text_[pos_++];
            cp = cp * 16 + static_cast<unsigned>(h <= '9'   ? h - '0'
                                                 : h <= 'F' ? h - 'A' + 10
                                                            : h - 'a' + 10);
          }
          append_utf8(out, cp);
          break;
        }
        default: set_err("bad escape"); return std::nullopt;
      }
    }
    set_err("unterminated string");
    return std::nullopt;
  }

  bool digits() {
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return true;
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    bool integral = true;
    eat('-');
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      set_err("bad number");
      return std::nullopt;
    }
    if (eat('.')) {
      integral = false;
      if (!digits()) {
        set_err("bad fraction");
        return std::nullopt;
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) {
        set_err("bad exponent");
        return std::nullopt;
      }
    }
    const std::string_view lit = text_.substr(start, pos_ - start);
    double d = 0;
    const auto dres = std::from_chars(lit.data(), lit.data() + lit.size(), d);
    if (dres.ec != std::errc() || dres.ptr != lit.data() + lit.size()) {
      set_err("number out of range");
      return std::nullopt;
    }
    std::optional<std::int64_t> exact;
    if (integral) {
      std::int64_t i = 0;
      const auto ires = std::from_chars(lit.data(), lit.data() + lit.size(), i);
      if (ires.ec == std::errc() && ires.ptr == lit.data() + lit.size()) exact = i;
    }
    return JsonValue::make_number(d, exact);
  }

  std::optional<JsonValue> value() {
    if (++depth_ > 256) {
      set_err("nesting too deep");
      return std::nullopt;
    }
    std::optional<JsonValue> v;
    switch (peek()) {
      case '{': v = object(); break;
      case '[': v = array(); break;
      case '"': {
        auto s = string();
        if (s.has_value()) v = JsonValue::make_string(std::move(*s));
        break;
      }
      case 't': v = literal("true", JsonValue::make_bool(true)); break;
      case 'f': v = literal("false", JsonValue::make_bool(false)); break;
      case 'n': v = literal("null", JsonValue::make_null()); break;
      default: v = number(); break;
    }
    --depth_;
    return v;
  }

  std::optional<JsonValue> object() {
    eat('{');
    skip_ws();
    std::vector<std::pair<std::string, JsonValue>> members;
    if (eat('}')) return JsonValue::make_object(std::move(members));
    while (true) {
      skip_ws();
      auto k = string();
      if (!k.has_value()) return std::nullopt;
      for (const auto& [existing, unused] : members) {
        (void)unused;
        if (existing == *k) {
          set_err("duplicate object key");
          return std::nullopt;
        }
      }
      skip_ws();
      if (!eat(':')) {
        set_err("expected ':'");
        return std::nullopt;
      }
      skip_ws();
      auto v = value();
      if (!v.has_value()) return std::nullopt;
      members.emplace_back(std::move(*k), std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return JsonValue::make_object(std::move(members));
      set_err("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array() {
    eat('[');
    skip_ws();
    std::vector<JsonValue> items;
    if (eat(']')) return JsonValue::make_array(std::move(items));
    while (true) {
      skip_ws();
      auto v = value();
      if (!v.has_value()) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return JsonValue::make_array(std::move(items));
      set_err("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string err_;
  std::size_t err_pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string& error) {
  return Parser(text).run(error);
}

}  // namespace gpucomm::serve
