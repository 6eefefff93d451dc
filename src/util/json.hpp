/// \file json.hpp
/// Minimal self-contained JSON value, parser, and writer.
///
/// Implemented in-repo (no third-party dependency) for model/allocation
/// persistence.  Supports the full JSON grammar: null, booleans, numbers
/// (doubles), strings with escape sequences including \uXXXX, arrays, and
/// objects.  Object key order is preserved on round-trip.

#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace tsce::util {

/// Error with the input offset where parsing failed.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  using Array = std::vector<Json>;
  /// Keys kept in insertion order (vector of pairs, not std::map).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] bool as_bool() const { return get<bool>("bool"); }
  [[nodiscard]] double as_number() const { return get<double>("number"); }
  [[nodiscard]] const std::string& as_string() const { return get<std::string>("string"); }
  [[nodiscard]] const Array& as_array() const { return get<Array>("array"); }
  [[nodiscard]] Array& as_array() { return getm<Array>("array"); }
  [[nodiscard]] const Object& as_object() const { return get<Object>("object"); }
  [[nodiscard]] Object& as_object() { return getm<Object>("object"); }

  /// Object field lookup; throws std::out_of_range when missing.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const noexcept;

  /// Appends/sets an object field (no duplicate-key check; use once per key).
  void set(std::string key, Json value);
  /// Appends an array element.
  void push_back(Json value);

  /// Parses a complete JSON document (trailing whitespace allowed).
  [[nodiscard]] static Json parse(std::string_view text);

  /// Serializes; \p indent < 0 is compact, otherwise pretty-printed with that
  /// many spaces per level.  Numbers round-trip exactly (%.17g).
  [[nodiscard]] std::string dump(int indent = -1) const;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  template <typename T>
  const T& get(const char* name) const {
    if (const T* p = std::get_if<T>(&value_)) return *p;
    throw std::runtime_error(std::string("Json: value is not a ") + name);
  }
  template <typename T>
  T& getm(const char* name) {
    if (T* p = std::get_if<T>(&value_)) return *p;
    throw std::runtime_error(std::string("Json: value is not a ") + name);
  }

  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Reads and parses a JSON file; throws std::runtime_error on I/O failure.
[[nodiscard]] Json read_json_file(const std::string& path);
/// Writes pretty-printed JSON to a file; throws on I/O failure.
void write_json_file(const std::string& path, const Json& value);

/// Appends \p s as a quoted, escaped JSON string.
void write_escaped(std::string& out, std::string_view s);
/// Appends \p d as a JSON number: integral values below 1e15 without a
/// fraction, others round-trip exactly (%.17g); NaN and infinities, which
/// JSON cannot express, as null.
void write_number(std::string& out, double d);

}  // namespace tsce::util
