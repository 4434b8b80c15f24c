#include "support/json_read.h"

#include <charconv>
#include <stdexcept>
#include <string>
#include <variant>

namespace rekey::test {

namespace {

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse_document() {
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    // Depth guard: documents are machine-written and shallow; a deeply
    // nested hostile input must not overflow the stack.
    if (depth_ > 200) return std::nullopt;
    const char c = text_[pos_];
    if (c == 'n') return consume_literal("null") ? std::optional(Json())
                                                 : std::nullopt;
    if (c == 't')
      return consume_literal("true") ? std::optional(Json(true)) : std::nullopt;
    if (c == 'f')
      return consume_literal("false") ? std::optional(Json(false))
                                      : std::nullopt;
    if (c == '"') return parse_string();
    if (c == '[') return parse_array();
    if (c == '{') return parse_object();
    return parse_number();
  }

  std::optional<Json> parse_string() {
    auto s = parse_raw_string();
    if (!s) return std::nullopt;
    return Json(std::move(*s));
  }

  std::optional<std::string> parse_raw_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return std::nullopt;
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported;
          // the emitters only escape control characters).
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
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    bool is_float = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_float = true;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_float = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return std::nullopt;
    if (!is_float) {
      std::int64_t iv = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
        return Json(iv);
      // Out-of-range integer literal: fall through to double.
    }
    double dv = 0.0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
      return std::nullopt;
    return Json(dv);
  }

  std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    ++depth_;
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return std::nullopt;
    }
    --depth_;
    return arr;
  }

  std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    ++depth_;
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      auto key = parse_raw_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      auto v = parse_value();
      if (!v) return std::nullopt;
      obj.set(std::move(*key), std::move(*v));
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return std::nullopt;
    }
    --depth_;
    return obj;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

const Json& at(const Json& object, std::string_view key) {
  const Json* v = object.find(key);
  if (v == nullptr)
    throw std::logic_error("missing key '" + std::string(key) + "'");
  return *v;
}

std::size_t size(const Json& value) {
  if (value.is_array()) return value.as_array().size();
  if (value.is_object()) return value.as_object().size();
  return 0;
}

double as_double(const Json& number) {
  if (number.is_int()) return static_cast<double>(number.as_int());
  if (!number.is_double()) throw std::bad_variant_access();
  // dump() writes the shortest form that reads back to the same double,
  // and null for a non-finite one, which no test expects to read.
  const std::string text = number.dump();
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto res = std::from_chars(text.data(), end, value);
  if (res.ec != std::errc() || res.ptr != end)
    throw std::logic_error("double does not read back: " + text);
  return value;
}

}  // namespace rekey::test
