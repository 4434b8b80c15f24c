// A small self-contained JSON value and its writer: enough for the
// observability layer (metric snapshots, trace events) and the bench
// emitters. The library only writes JSON; the strict parser that reads
// the documents back lives with the tests (tests/support/json_read.h).
//
// Deliberate properties:
//  * Objects preserve insertion order, so emitted documents are stable
//    byte-for-byte across runs and easy to diff.
//  * Integers are kept distinct from doubles (the bench-diff tooling
//    compares integer fields exactly, float fields within tolerance).
//  * Doubles serialize via shortest round-trip formatting (std::to_chars),
//    so a document re-parsed and dumped again is a fixed point.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rekey {

class Json {
 public:
  using Array = std::vector<Json>;
  // Insertion-ordered object; lookups are linear (documents are small).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}
  Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}
  Json(long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(long long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(unsigned long long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  // Any JSON number (integer- or float-valued).
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  // Object access. set() replaces an existing key in place (order kept);
  // find() returns nullptr when absent.
  Json& set(std::string key, Json value);
  const Json* find(std::string_view key) const;
  Json* find(std::string_view key) {
    return const_cast<Json*>(std::as_const(*this).find(key));
  }
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  // Array append.
  Json& push_back(Json value);

  // Compact single-line serialization (indent < 0) or pretty-printed with
  // `indent` spaces per level.
  std::string dump(int indent = -1) const;
  void dump_to(std::ostream& os, int indent = -1) const;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  void dump_impl(std::ostream& os, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

// JSON string escaping (used by the trace writer's hand-rolled fast path).
void json_escape_to(std::ostream& os, std::string_view s);

}  // namespace rekey
