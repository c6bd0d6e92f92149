#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ricsa::util {

namespace {
const Json kNullJson{};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw std::runtime_error("json parse error: unexpected end of input");
    }
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > Json::kMaxDepth) fail("nesting too deep");
        Json nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      take();
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char d = take();
      if (d == '}') break;
      if (d != ',') { --pos_; fail("expected ',' or '}'"); }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      take();
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char d = take();
      if (d == ']') break;
      if (d != ',') { --pos_; fail("expected ',' or ']'"); }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode BMP codepoint as UTF-8 (surrogate pairs not combined).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto result =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (result.ec != std::errc{} || result.ptr != token.data() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  // JSON has no NaN or infinity; null is what JSON.stringify writes too.
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // Range first: casting a double outside int64 is undefined.
  if (std::abs(d) < 1e15 &&
      d == static_cast<double>(static_cast<std::int64_t>(d))) {
    out += std::to_string(static_cast<std::int64_t>(d));
  } else {
    // The shortest text that parses back to the same double: 2.7, not
    // %.17g's 2.7000000000000002.
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, result.ptr);
  }
}
}  // namespace

bool Json::as_bool(bool fallback) const noexcept {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  return fallback;
}

double Json::as_number(double fallback) const noexcept {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const noexcept {
  if (const double* d = std::get_if<double>(&value_)) {
    return static_cast<std::int64_t>(std::llround(*d));
  }
  return fallback;
}

const std::string& Json::as_string() const { return std::get<std::string>(value_); }
const JsonArray& Json::as_array() const { return std::get<JsonArray>(value_); }
const JsonObject& Json::as_object() const { return std::get<JsonObject>(value_); }
JsonArray& Json::as_array() { return std::get<JsonArray>(value_); }
JsonObject& Json::as_object() { return std::get<JsonObject>(value_); }

const Json& Json::at(std::string_view key) const {
  if (const JsonObject* obj = std::get_if<JsonObject>(&value_)) {
    const auto it = obj->find(std::string(key));
    if (it != obj->end()) return it->second;
  }
  return kNullJson;
}

bool Json::contains(std::string_view key) const {
  if (const JsonObject* obj = std::get_if<JsonObject>(&value_)) {
    return obj->find(std::string(key)) != obj->end();
  }
  return false;
}

Json& Json::operator[](const std::string& key) {
  if (!is_object()) value_ = JsonObject{};
  return std::get<JsonObject>(value_)[key];
}

namespace {
void dump_impl(const Json& v, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}
}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

namespace {
void dump_impl(const Json& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    const JsonArray& arr = v.as_array();
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      dump_impl(arr[i], out, indent, depth + 1);
    }
    if (!arr.empty()) newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const JsonObject& obj = v.as_object();
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_string(key, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      dump_impl(value, out, indent, depth + 1);
    }
    if (!obj.empty()) newline_indent(out, indent, depth);
    out.push_back('}');
  }
}
}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace ricsa::util
