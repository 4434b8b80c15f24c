// Reading back the JSON documents the library writes: a strict parser
// and the lookups tests make on its result. The library itself only
// writes JSON (common/json.h).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "common/json.h"

namespace rekey::test {

// Strict parse of a complete document; nullopt on any syntax error or
// trailing garbage.
std::optional<Json> parse_json(std::string_view text);

// The value under `key` of an object; throws std::logic_error when the
// key is missing or `object` is not an object.
const Json& at(const Json& object, std::string_view key);

// Elements of an array or members of an object; 0 for a scalar.
std::size_t size(const Json& value);

// A number of either representation, as a double (std::bad_variant_access
// for anything else, std::logic_error for a non-finite double).
double as_double(const Json& number);

}  // namespace rekey::test
