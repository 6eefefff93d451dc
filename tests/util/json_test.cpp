#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

namespace tsce::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainers) {
  const Json v = Json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v.at("a").is_array());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
}

TEST(Json, ParsesEmptyContainers) {
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
  EXPECT_TRUE(Json::parse("  [ ]  ").as_array().empty());
}

TEST(Json, StringEscapes) {
  const Json v = Json::parse(R"("line\nbreak \"quoted\" tab\t back\\slash")");
  EXPECT_EQ(v.as_string(), "line\nbreak \"quoted\" tab\t back\\slash");
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");      // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xE2\x82\xAC");  // €
  // Surrogate pair for U+1F600.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, RawUtf8PassesThrough) {
  EXPECT_EQ(Json::parse("\"\xC3\xA9\"").as_string(), "\xC3\xA9");
}

TEST(Json, InvalidUnicodeEscapesRejected) {
  EXPECT_THROW((void)Json::parse(R"("\u12")"), JsonParseError);
  EXPECT_THROW((void)Json::parse(R"("\uZZZZ")"), JsonParseError);
  EXPECT_THROW((void)Json::parse(R"("\ud800")"), JsonParseError);  // lone surrogate
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), JsonParseError);
  EXPECT_THROW((void)Json::parse("{"), JsonParseError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW((void)Json::parse("tru"), JsonParseError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonParseError);
  EXPECT_THROW((void)Json::parse("nan"), JsonParseError);
}

TEST(Json, ParseErrorCarriesOffset) {
  try {
    (void)Json::parse("[1, @]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(Json, NestingCapIsExactAndNamesTheOffset) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)Json::parse(nested(Json::kMaxDepth)));
  try {
    (void)Json::parse(nested(Json::kMaxDepth + 1));
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), Json::kMaxDepth);
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("at offset " + std::to_string(Json::kMaxDepth)),
              std::string::npos);
  }
  // A million unclosed brackets once overflowed the stack; the cap stops the
  // recursion at the first level past it.
  EXPECT_THROW((void)Json::parse(std::string(1'000'000, '[')), JsonParseError);
  std::string objects;
  for (int i = 0; i < 1'000'000; ++i) objects += R"({"a":)";
  EXPECT_THROW((void)Json::parse(objects), JsonParseError);
  const std::string mixed = R"({"a":)" + nested(Json::kMaxDepth) + "}";
  EXPECT_THROW((void)Json::parse(mixed), JsonParseError);
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::runtime_error);
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("x"), std::runtime_error);
}

TEST(Json, MissingKeyThrows) {
  const Json v = Json::parse("{\"a\": 1}");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("b"));
  EXPECT_THROW((void)v.at("b"), std::out_of_range);
}

TEST(Json, DumpCompactRoundTrip) {
  const std::string text = R"({"a":[1,2.5,"x"],"b":null,"c":true})";
  const Json v = Json::parse(text);
  EXPECT_EQ(Json::parse(v.dump()), v);
  EXPECT_EQ(v.dump(), text);
}

TEST(Json, DumpPrettyIsReparseable) {
  const Json v = Json::parse(R"({"nested": {"list": [1, [2, 3]], "s": "v"}})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), v);
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double x : {0.1, 1e-300, 12345.678901234567, -0.0, 3.0}) {
    const Json v(x);
    EXPECT_DOUBLE_EQ(Json::parse(v.dump()).as_number(), x) << v.dump();
  }
}

TEST(Json, IntegersDumpWithoutExponent) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
}

TEST(Json, InfinityDumpsAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, BuilderApi) {
  Json obj = Json::object();
  obj.set("name", Json("tsce"));
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json(2));
  obj.set("values", std::move(arr));
  EXPECT_EQ(obj.dump(), R"({"name":"tsce","values":[1,2]})");
}

TEST(Json, ObjectKeyOrderPreserved) {
  const Json v = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& fields = v.as_object();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].first, "z");
  EXPECT_EQ(fields[1].first, "a");
  EXPECT_EQ(fields[2].first, "m");
}

TEST(Json, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tsce_json_test.json";
  Json original = Json::parse(R"({"x": [1, 2, {"y": null}]})");
  write_json_file(path, original);
  EXPECT_EQ(read_json_file(path), original);
  std::remove(path.c_str());
}

TEST(Json, ReadMissingFileThrows) {
  EXPECT_THROW((void)read_json_file("/nonexistent/path/file.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace tsce::util
