// Small JSON value type with parser and writer.
//
// Used by the Ajax web front end (Section 5.1): steering commands arrive as
// JSON POST bodies and monitoring state is pushed to browsers as JSON via
// XMLHttpRequest long-polls. Supports the full JSON grammar minus \u escapes
// beyond BMP pass-through.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ricsa::util {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool(bool fallback = false) const noexcept;
  double as_number(double fallback = 0.0) const noexcept;
  std::int64_t as_int(std::int64_t fallback = 0) const noexcept;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object field access; returns null Json for missing keys.
  const Json& at(std::string_view key) const;
  bool contains(std::string_view key) const;
  Json& operator[](const std::string& key);

  std::string dump(int indent = -1) const;

  /// Deepest array/object nesting parse() accepts: the parser recurses
  /// per level, and request bodies are untrusted.
  static constexpr int kMaxDepth = 256;

  /// Parse a complete JSON document. Throws std::runtime_error on malformed
  /// input (or nesting deeper than kMaxDepth) with a byte-offset diagnostic.
  static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;
};

}  // namespace ricsa::util
