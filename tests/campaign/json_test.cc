// Json document model: deterministic dump, escaping, and strict-parse round-trip —
// the foundation both artifact sinks and the schema-checking tests stand on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/campaign/json.h"

namespace tsvd::campaign {
namespace {

TEST(JsonTest, DumpIsDeterministicWithSortedKeys) {
  Json obj = Json::MakeObject();
  obj.Set("zeta", 1);
  obj.Set("alpha", true);
  obj.Set("mid", "x");
  EXPECT_EQ(obj.Dump(), R"({"alpha":true,"mid":"x","zeta":1})");
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(Json::Escape("a\"b\\c\n\t\x01"), "a\\\"b\\\\c\\n\\t\\u0001");
  Json s("line\nbreak");
  EXPECT_EQ(s.Dump(), "\"line\\nbreak\"");
}

TEST(JsonTest, ParseRoundTripsNestedDocument) {
  Json doc = Json::MakeObject();
  doc.Set("n", nullptr);
  doc.Set("i", int64_t{-42});
  doc.Set("d", 1.5);
  doc.Set("s", "héllo");
  Json arr = Json::MakeArray();
  arr.Push(1);
  arr.Push(false);
  Json inner = Json::MakeObject();
  inner.Set("k", "v");
  arr.Push(std::move(inner));
  doc.Set("a", std::move(arr));

  Json parsed;
  ASSERT_TRUE(Json::Parse(doc.Dump(2), &parsed));
  EXPECT_EQ(parsed.Dump(), doc.Dump());
  EXPECT_TRUE(parsed.Find("n")->is_null());
  EXPECT_EQ(parsed.Find("i")->as_int(), -42);
  EXPECT_EQ(parsed.Find("a")->at(2).Find("k")->as_string(), "v");
}

TEST(JsonTest, ParseHandlesUnicodeEscapes) {
  Json parsed;
  ASSERT_TRUE(Json::Parse(R"({"s": "aéb"})", &parsed));
  EXPECT_EQ(parsed.Find("s")->as_string(), "a\xc3\xa9"
                                           "b");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  Json out;
  EXPECT_FALSE(Json::Parse("", &out));
  EXPECT_FALSE(Json::Parse("{", &out));
  EXPECT_FALSE(Json::Parse("{\"a\":1,}", &out));
  EXPECT_FALSE(Json::Parse("[1 2]", &out));
  EXPECT_FALSE(Json::Parse("\"unterminated", &out));
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing", &out));
  EXPECT_FALSE(Json::Parse("nul", &out));
}

TEST(JsonTest, FindOnMissingKeyReturnsNull) {
  Json obj = Json::MakeObject();
  obj.Set("present", 1);
  EXPECT_EQ(obj.Find("absent"), nullptr);
  EXPECT_TRUE(obj.Has("present"));
  EXPECT_FALSE(obj.Has("absent"));
}

Json ParseOrDie(const std::string& text) {
  Json doc;
  EXPECT_TRUE(Json::Parse(text, &doc)) << text;
  return doc;
}

TEST(JsonTest, ReadFieldKeepsDefaultForAbsentKeyAndRejectsWrongType) {
  const Json doc = ParseOrDie(R"({"n":5,"s":"x","b":true})");
  int n = 42;
  EXPECT_TRUE(ReadField(doc, "absent", &n));
  EXPECT_EQ(n, 42);
  std::string error;
  EXPECT_FALSE(ReadField(doc, "s", &n, &error));
  EXPECT_EQ(error, "\"s\" is not a number");
  bool b = false;
  EXPECT_FALSE(ReadField(doc, "n", &b, &error));
  EXPECT_EQ(error, "\"n\" is not a bool");
  std::string s;
  EXPECT_FALSE(ReadField(doc, "b", &s, &error));
  EXPECT_EQ(error, "\"b\" is not a string");
}

TEST(JsonTest, ReadFieldRejectsIntegersOutsideTheFieldsRange) {
  // 4294967297 = 2^32 + 1 used to truncate to 1 in an int field; 1e300 used to go
  // through an undefined double-to-int64 cast.
  const Json doc = ParseOrDie(
      R"({"big":4294967297,"huge":1e300,"half":2.5,"neg":-1,"below":-1e19})");
  int small = 0;
  int64_t wide = 0;
  std::string error;
  EXPECT_FALSE(ReadField(doc, "big", &small, &error));
  EXPECT_EQ(error, "\"big\" is not an integer in range");
  EXPECT_TRUE(ReadField(doc, "big", &wide));
  EXPECT_EQ(wide, 4294967297);
  EXPECT_FALSE(ReadField(doc, "huge", &wide, &error));
  EXPECT_EQ(error, "\"huge\" is not an integer in range");
  uint64_t unsigned_wide = 0;
  EXPECT_FALSE(ReadField(doc, "huge", &unsigned_wide));
  EXPECT_FALSE(ReadField(doc, "below", &unsigned_wide));
  EXPECT_FALSE(ReadField(doc, "below", &wide));
  EXPECT_FALSE(ReadField(doc, "half", &wide));
  EXPECT_FALSE(ReadField(doc, "half", &small));
  double d = 0;
  EXPECT_TRUE(ReadField(doc, "half", &d));
  EXPECT_EQ(d, 2.5);
}

TEST(JsonTest, ReadFieldAcceptsIntegralDoublesInRange) {
  const Json doc = ParseOrDie(R"({"three":3.0,"e18":1e18,"e19":1e19,"min":-2147483648.0})");
  int small = 0;
  ASSERT_TRUE(ReadField(doc, "three", &small));
  EXPECT_EQ(small, 3);
  ASSERT_TRUE(ReadField(doc, "min", &small));
  EXPECT_EQ(small, std::numeric_limits<int>::min());
  int64_t wide = 0;
  ASSERT_TRUE(ReadField(doc, "e18", &wide));
  EXPECT_EQ(wide, 1000000000000000000);
  EXPECT_FALSE(ReadField(doc, "e19", &wide));  // above INT64_MAX
  uint64_t unsigned_wide = 0;
  ASSERT_TRUE(ReadField(doc, "e19", &unsigned_wide));
  EXPECT_EQ(unsigned_wide, 10000000000000000000ULL);
}

TEST(JsonTest, AsIntSaturatesDoublesOutsideInt64) {
  // The fleet messages read numbers with as_int(); a hostile 1e300 must not reach
  // an undefined double-to-int64 cast.
  EXPECT_EQ(ParseOrDie("1e300").as_int(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseOrDie("-1e300").as_int(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseOrDie("-2.5").as_int(), -2);
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).as_int(), 0);
}

TEST(JsonTest, Uint64FieldsRoundTripTwosComplement) {
  for (const uint64_t value : {uint64_t{0}, uint64_t{1} << 63, ~uint64_t{0},
                               uint64_t{0xdeadbeefcafef00d}}) {
    Json doc = Json::MakeObject();
    doc.Set("v", value);
    const Json parsed = ParseOrDie(doc.Dump());
    uint64_t back = 0;
    ASSERT_TRUE(ReadField(parsed, "v", &back)) << doc.Dump();
    EXPECT_EQ(back, value);
  }
}

}  // namespace
}  // namespace tsvd::campaign
