// util/json: the number formatter against the %.17g stream output it
// replaced, bit-exact write → parse round trips, numbers outside the normal
// double range, the flat sorted object representation, and the buffered
// writer's hand-off to its stream.
#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "io/provenance.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace mmr {
namespace {

/// The formatter every writer used before: an ostream at max_digits10.
std::string stream_precision17(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string written(double v) {
  std::ostringstream os;
  JsonWriter(os).value(v);
  return os.str();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Json, NumberFormatterMatchesStreamPrecision17) {
  const double values[] = {
      0.0,
      -0.0,
      0.1,
      -0.1,
      1.0 / 3.0,
      100.0,
      123.456,
      1e-7,
      std::numeric_limits<double>::denorm_min(),   // 5e-324
      4.9406564584124654e-324,                     // the same, as written
      2.2250738585072009e-308,                     // largest subnormal
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      9007199254740992.0,   // 2^53
      9007199254740994.0,   // 2^53 + 2
      18446744073709551616.0,  // 2^64
      1e17,
      1e20,
      1e21,
      -1e21,
      5e-324,
  };
  for (double v : values) {
    SCOPED_TRACE(stream_precision17(v));
    EXPECT_EQ(json_number(v), stream_precision17(v));
    EXPECT_EQ(written(v), stream_precision17(v));
  }
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(1e21), "1e+21");
  // JSON has no NaN/Inf.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, IntegersMatchStreamOutput) {
  const std::int64_t signed_values[] = {0, -1, 42,
                                        std::numeric_limits<std::int64_t>::min(),
                                        std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t v : signed_values) {
    std::ostringstream os;
    JsonWriter(os).value(v);
    EXPECT_EQ(os.str(), std::to_string(v));
  }
  std::ostringstream os;
  JsonWriter(os).value(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(os.str(), "18446744073709551615");
}

TEST(Json, RandomFiniteBitPatternsRoundTripExactly) {
  // Random bit patterns cover every exponent, subnormals included.
  Rng rng(20240607);
  std::vector<double> values;
  values.reserve(100'000);
  while (values.size() < 100'000) {
    const double v = std::bit_cast<double>(static_cast<std::uint64_t>(rng()));
    if (std::isfinite(v)) values.push_back(v);
  }
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_array();
    for (double v : values) w.value(v);
    w.end_array();
  }
  const JsonValue parsed = json_parse(os.str());
  ASSERT_EQ(parsed.arr.size(), values.size());
  std::size_t mismatches = 0;
  std::size_t text_mismatches = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (bits(parsed.arr[i].num_v) != bits(values[i])) ++mismatches;
    if (json_number(values[i]) != stream_precision17(values[i])) {
      ++text_mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(text_mismatches, 0u);  // the same bytes as the old formatter
}

TEST(Json, SubnormalsParseExactly) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(bits(json_parse("4.9406564584124654e-324").num_v), bits(tiny));
  EXPECT_EQ(bits(json_parse("5e-324").num_v), bits(tiny));
  EXPECT_EQ(bits(json_parse("-2.2250738585072009e-308").num_v),
            bits(-2.2250738585072009e-308));
  EXPECT_EQ(json_parse("+5").num_v, 5.0);  // a leading '+' stays accepted

  // An artifact holding a subnormal reads back: the writer emits it, so the
  // strict parser must take it.
  FlightRecord r;
  r.policy = "ours";
  r.t_local = tiny;
  std::ostringstream os;
  write_flight_jsonl(os, {r}, 0, RunMeta{});
  std::vector<JsonValue> records;
  parse_provenance_jsonl(os.str(), testing::collect_records(records));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(bits(records[0].at("t_local").num_v), bits(tiny));
}

TEST(Json, OutOfRangeNumbersRaiseCheckErrorWithOffset) {
  for (const char* text : {"1e999", "-1e999", "[1,2,1e400]", "1e-400"}) {
    SCOPED_TRACE(text);
    try {
      json_parse(text);
      ADD_FAILURE() << "parsed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
  }
  try {
    json_parse("{\"a\":1e999}");
    ADD_FAILURE() << "parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 5"), std::string::npos)
        << e.what();
  }
}

TEST(Json, DuplicateKeysKeepFirstAndObjectsIterateInKeyOrder) {
  const JsonValue v = json_parse(
      R"({"b":1,"a":2,"b":3,"c":{"z":1,"y":[true],"x":null},"B":4,"a":5})");
  std::vector<std::string> keys;
  for (const auto& [key, member] : v.obj) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"B", "a", "b", "c"}));
  EXPECT_EQ(v.at("b").num_v, 1.0);
  EXPECT_EQ(v.at("a").num_v, 2.0);
  EXPECT_TRUE(v.has("B"));
  EXPECT_FALSE(v.has("d"));
  EXPECT_THROW(v.at("d"), CheckError);
  keys.clear();
  for (const auto& [key, member] : v.at("c").obj) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_TRUE(v.at("c").at("y").at(std::size_t{0}).bool_v);
  EXPECT_FALSE(json_parse("[1]").has("a"));  // not an object
  EXPECT_TRUE(json_parse("{}").obj.empty());
}

TEST(Json, StringsEscapeOnlyWhereNeeded) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("plain", "abc");
    w.kv("q\"k", std::string("a\"b\\c\n\t\x01\x1f/\xc3\xa9"));
    w.end_object();
  }
  EXPECT_EQ(os.str(),
            "{\"plain\":\"abc\",\"q\\\"k\":\"a\\\"b\\\\c\\n\\t\\u0001\\u001f/"
            "\xc3\xa9\"}");
  const JsonValue v = json_parse(os.str());
  EXPECT_EQ(v.at("q\"k").str_v, "a\"b\\c\n\t\x01\x1f/\xc3\xa9");
  EXPECT_EQ(json_escape("\b\f\r"), "\\b\\f\\r");
}

TEST(Json, WriterHandsEachTopLevelValueToTheStream) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().kv("a", std::int64_t{1});
  EXPECT_EQ(os.str(), "");  // still buffered inside the value
  w.end_object();
  EXPECT_EQ(os.str(), "{\"a\":1}");
  os << '\n';
  w.value(2.5);
  EXPECT_EQ(os.str(), "{\"a\":1}\n2.5");

  // A value larger than the buffer reaches the stream whole and in order.
  std::ostringstream big;
  std::string expected = "[";
  {
    JsonWriter b(big);
    b.begin_array();
    for (int i = 0; i < 50'000; ++i) {
      b.value("x");
      expected += i == 0 ? "\"x\"" : ",\"x\"";
    }
    b.end_array();
  }
  expected += "]";
  EXPECT_EQ(big.str(), expected);
}

}  // namespace
}  // namespace mmr
