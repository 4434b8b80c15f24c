#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace rekey {

namespace {

// Shortest round-trip formatting; JSON has no Infinity/NaN, emit null.
void dump_double(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  os.write(buf, res.ptr - buf);
  // Integer-valued doubles must not re-parse as integers: the bench-diff
  // tooling keys exact-vs-tolerant comparison off the number's type.
  const std::string_view written(buf, static_cast<std::size_t>(res.ptr - buf));
  if (written.find_first_of(".eE") == std::string_view::npos) os << ".0";
}

}  // namespace

void json_escape_to(std::ostream& os, std::string_view s) {
  os.put('"');
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os.put(c);  // UTF-8 passes through byte-wise
        }
    }
  }
  os.put('"');
}

Json& Json::set(std::string key, Json value) {
  Object& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return obj.back().second;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_))
    if (k == key) return &v;
  return nullptr;
}

Json& Json::push_back(Json value) {
  Array& arr = std::get<Array>(value_);
  arr.push_back(std::move(value));
  return arr.back();
}

void Json::dump_impl(std::ostream& os, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    os.put('\n');
    for (int i = 0; i < indent * d; ++i) os.put(' ');
  };
  if (is_null()) {
    os << "null";
  } else if (is_bool()) {
    os << (as_bool() ? "true" : "false");
  } else if (is_int()) {
    os << as_int();
  } else if (is_double()) {
    dump_double(os, std::get<double>(value_));
  } else if (is_string()) {
    json_escape_to(os, as_string());
  } else if (is_array()) {
    const Array& arr = std::get<Array>(value_);
    if (arr.empty()) {
      os << "[]";
      return;
    }
    os.put('[');
    bool first = true;
    for (const Json& v : arr) {
      if (!first) os.put(',');
      first = false;
      newline_pad(depth + 1);
      v.dump_impl(os, indent, depth + 1);
    }
    newline_pad(depth);
    os.put(']');
  } else {
    const Object& obj = std::get<Object>(value_);
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os.put('{');
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) os.put(',');
      first = false;
      newline_pad(depth + 1);
      json_escape_to(os, k);
      os.put(':');
      if (indent >= 0) os.put(' ');
      v.dump_impl(os, indent, depth + 1);
    }
    newline_pad(depth);
    os.put('}');
  }
}

void Json::dump_to(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump_to(os, indent);
  return os.str();
}

}  // namespace rekey
