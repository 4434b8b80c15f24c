// The JSON value type underpinning the observability layer: insertion
// order, int/double distinction, round-trip stability through the test
// support's strict parser, and that parser's strictness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "support/json_read.h"

namespace rekey {
namespace {

using test::parse_json;

TEST(Json, ObjectPreservesInsertionOrder) {
  Json o = Json::object();
  o.set("zebra", 1);
  o.set("apple", 2);
  o.set("mango", 3);
  EXPECT_EQ(o.dump(), R"({"zebra":1,"apple":2,"mango":3})");

  // set() on an existing key replaces the value in place, keeping order.
  o.set("apple", 9);
  EXPECT_EQ(o.dump(), R"({"zebra":1,"apple":9,"mango":3})");
}

TEST(Json, IntAndDoubleStayDistinct) {
  Json i(42);
  Json d(42.0);
  EXPECT_TRUE(i.is_int());
  EXPECT_FALSE(i.is_double());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(i.is_number());
  EXPECT_TRUE(d.is_number());
  EXPECT_EQ(i.dump(), "42");
  // Integer-valued doubles still serialize as doubles, so the type
  // survives a dump/parse round trip.
  EXPECT_EQ(d.dump(), "42.0");
  auto rt = parse_json(d.dump());
  ASSERT_TRUE(rt.has_value());
  EXPECT_TRUE(rt->is_double());
  EXPECT_DOUBLE_EQ(test::as_double(d), 42.0);
  EXPECT_DOUBLE_EQ(test::as_double(i), 42.0);  // as_double accepts either
  // A non-finite double dumps as null, so it cannot read back as a number.
  EXPECT_THROW(test::as_double(Json(std::numeric_limits<double>::infinity())),
               std::logic_error);

  // The parser keeps the distinction: no decimal point/exponent -> int.
  auto pi = parse_json("42");
  auto pd = parse_json("42.0");
  ASSERT_TRUE(pi && pd);
  EXPECT_TRUE(pi->is_int());
  EXPECT_TRUE(pd->is_double());
}

TEST(Json, DumpParseRoundTripIsFixedPoint) {
  Json doc(Json::Object{
      {"name", "F17"},
      {"smoke", true},
      {"nothing", nullptr},
      {"count", std::int64_t{1} << 53},
      {"mean", 1.0449},
      {"tiny", 1e-300},
      {"rows", Json(Json::Array{Json(Json::Array{1, 2.5, "x"}),
                                Json(Json::Array{-7, 0.1, ""})})},
  });
  for (int indent : {-1, 0, 1, 2}) {
    const std::string once = doc.dump(indent);
    auto parsed = parse_json(once);
    ASSERT_TRUE(parsed.has_value()) << once;
    EXPECT_EQ(*parsed, doc);
    EXPECT_EQ(parsed->dump(indent), once);
  }
}

TEST(Json, ShortestDoubleFormatting) {
  // std::to_chars shortest form: these must re-parse to the same bits.
  for (double v : {0.1, 1.0 / 3.0, 6.02e23, -0.0, 5e-324,
                   std::numeric_limits<double>::max()}) {
    const std::string s = Json(v).dump();
    auto parsed = parse_json(s);
    ASSERT_TRUE(parsed.has_value()) << s;
    EXPECT_EQ(test::as_double(*parsed), v) << s;
  }
}

TEST(Json, StringEscaping) {
  Json s(std::string("a\"b\\c\n\t\x01z"));
  const std::string dumped = s.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
  auto parsed = parse_json(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, s);

  // json_escape_to emits a complete quoted JSON string token.
  std::ostringstream os;
  json_escape_to(os, "x\"\\\n");
  EXPECT_EQ(os.str(), "\"x\\\"\\\\\\n\"");
}

TEST(Json, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json(""));
  EXPECT_FALSE(parse_json("{"));
  EXPECT_FALSE(parse_json("[1,2,]"));
  EXPECT_FALSE(parse_json("{\"a\":1,}"));
  EXPECT_FALSE(parse_json("tru"));
  EXPECT_FALSE(parse_json("nan"));
  EXPECT_FALSE(parse_json("'single'"));
  EXPECT_FALSE(parse_json("{\"a\" 1}"));
  // Trailing garbage after a valid document is an error, not ignored.
  EXPECT_FALSE(parse_json("1 2"));
  EXPECT_FALSE(parse_json("{\"a\":1} x"));
  // Whitespace padding is fine.
  EXPECT_TRUE(parse_json("  {\"a\": [1, 2]}\n"));
}

TEST(Json, ObjectAccessors) {
  Json o(Json::Object{{"a", 1}, {"b", "two"}});
  EXPECT_TRUE(o.contains("a"));
  EXPECT_FALSE(o.contains("c"));
  ASSERT_NE(o.find("b"), nullptr);
  EXPECT_EQ(o.find("b")->as_string(), "two");
  EXPECT_EQ(o.find("c"), nullptr);
  EXPECT_EQ(test::at(o, "a").as_int(), 1);
  EXPECT_THROW(test::at(o, "missing"), std::logic_error);
  EXPECT_EQ(test::size(o), 2u);

  // push_back returns a reference to the appended element.
  Json a = Json::array();
  Json& first = a.push_back(1);
  EXPECT_EQ(first.as_int(), 1);
  a.push_back("x");
  EXPECT_EQ(test::size(a), 2u);
  EXPECT_EQ(a.as_array()[1].as_string(), "x");
}

TEST(Json, ParsesNestedBenchLikeDocument) {
  const char* text = R"json({
    "schema_version": 1,
    "figure": "F8",
    "smoke": true,
    "sections": [
      {"id": "F8 (left)", "columns": ["k", "alpha=0"],
       "rows": [[1, 1.5], [10, 1.25]]}
    ],
    "seeds": ["0x0000000000000f08"],
    "notes": []
  })json";
  auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(test::at(*doc, "schema_version").as_int(), 1);
  EXPECT_EQ(test::at(*doc, "figure").as_string(), "F8");
  const auto& rows =
      test::at(test::at(*doc, "sections").as_array()[0], "rows").as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].as_array()[0].is_int());
  EXPECT_TRUE(rows[0].as_array()[1].is_double());
}

}  // namespace
}  // namespace rekey
