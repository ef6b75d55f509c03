#include "runner/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "bench_common.hpp"
#include "core/contracts.hpp"
#include "core/fields.hpp"

namespace swl::runner {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::int64_t{-3}).dump(), "-3");
  EXPECT_EQ(Json(std::uint64_t{18446744073709551615ULL}).dump(), "18446744073709551615");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("a\\b").dump(), "\"a\\\\b\"");
  EXPECT_EQ(Json("a\nb\tc").dump(), "\"a\\nb\\tc\"");
  EXPECT_EQ(Json(std::string("a\x01") + "b").dump(), "\"a\\u0001b\"");
}

TEST(Json, CompactObjectKeepsInsertionOrder) {
  Json obj = Json::object();
  obj.set("z", 1);
  obj.set("a", 2);
  EXPECT_EQ(obj.dump(0), "{\"z\":1,\"a\":2}");
}

TEST(Json, NestedPrettyPrint) {
  Json doc = Json::object();
  doc.set("bench", "fig5");
  Json points = Json::array();
  Json p = Json::object();
  p.set("k", 3);
  points.push(std::move(p));
  doc.set("points", std::move(points));
  EXPECT_EQ(doc.dump(2),
            "{\n  \"bench\": \"fig5\",\n  \"points\": [\n    {\n      \"k\": 3\n    }\n  ]\n}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(), "[]");
}

TEST(Json, TypeMisuseThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", 1), PreconditionError);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(1), PreconditionError);
  EXPECT_THROW(Json(1).push(2), PreconditionError);
}

// ---- parser ---------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").has_value());
  EXPECT_EQ(Json::parse("true")->boolean(), true);
  EXPECT_EQ(Json::parse("false")->boolean(), false);
  EXPECT_EQ(*Json::parse("42")->number(), 42.0);
  EXPECT_EQ(*Json::parse("-1.5")->number(), -1.5);
  EXPECT_EQ(*Json::parse("1e3")->number(), 1000.0);
  EXPECT_EQ(*Json::parse("\"hi\"")->string(), "hi");
  EXPECT_EQ(*Json::parse("  \"pad\"  ")->string(), "pad");
}

TEST(JsonParse, IntegersSurviveRoundTrip) {
  // Integers must not be squeezed through double: 2^64-1 and int64 min are
  // not representable exactly as doubles.
  const auto huge = Json::parse("18446744073709551615");
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(huge->dump(), "18446744073709551615");
  const auto negative = Json::parse("-9223372036854775808");
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->dump(), "-9223372036854775808");
  // Out-of-range integers degrade to double instead of failing.
  EXPECT_TRUE(Json::parse("99999999999999999999999")->number().has_value());
}

TEST(JsonParse, ObjectsArraysAndAccessors) {
  const auto doc = Json::parse(R"({"name":"replay","n":3,"xs":[1,2,3],"sub":{"ok":true}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("name"), nullptr);
  EXPECT_EQ(*doc->find("name")->string(), "replay");
  EXPECT_EQ(*doc->find("n")->number(), 3.0);
  const Json* xs = doc->find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_EQ(*xs->at(1)->number(), 2.0);
  EXPECT_EQ(xs->at(3), nullptr);
  EXPECT_EQ(doc->find("sub")->find("ok")->boolean(), true);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(*Json::parse(R"("a\"b\\c\/d")")->string(), "a\"b\\c/d");
  EXPECT_EQ(*Json::parse(R"("a\nb\tc")")->string(), "a\nb\tc");
  EXPECT_EQ(*Json::parse(R"("\u0041\u00e9")")->string(), "A\xc3\xa9");
}

TEST(JsonParse, DumpParseRoundTrip) {
  Json doc = Json::object();
  doc.set("bench", "micro");
  doc.set("count", std::uint64_t{20'054'016});
  doc.set("ratio", 0.996);
  Json points = Json::array();
  Json p = Json::object();
  p.set("name", "replay_ftl");
  p.set("items_per_second", 4.2e7);
  points.push(std::move(p));
  doc.set("points", std::move(points));
  for (const int indent : {0, 2}) {
    const auto back = Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.has_value()) << "indent " << indent;
    EXPECT_EQ(back->dump(indent), doc.dump(indent));
  }
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated", "01", "1.",
        "+1", "nan", "{\"a\":1} trailing", "[1,2,]", "{\"a\":1,}", "\"bad\\q\"",
        "\"\\u12\"", "'single'"}) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << "input: " << bad;
  }
}

TEST(JsonParse, RejectsRunawayNesting) {
  const std::string deep(1000, '[');
  EXPECT_FALSE(Json::parse(deep + std::string(1000, ']')).has_value());
}

TEST(JsonParse, AccessorsOnWrongTypesReturnEmpty) {
  const Json num(1);
  EXPECT_EQ(num.find("k"), nullptr);
  EXPECT_EQ(num.at(0), nullptr);
  EXPECT_EQ(num.size(), 0u);
  EXPECT_EQ(num.string(), nullptr);
  EXPECT_FALSE(num.boolean().has_value());
  EXPECT_FALSE(Json("s").number().has_value());
}

/// Gives every listed field of `s` its own value, counting up from `next`.
template <typename S>
void fill_distinct(S& s, std::uint64_t& next) {
  for_each_field<S>([&](const auto& f) {
    s.*f.member = static_cast<std::remove_reference_t<decltype(s.*f.member)>>(next++);
  });
}

template <typename S>
void expect_emitted(const Json& doc, const char* key, const S& s) {
  const Json* obj = doc.find(key);
  ASSERT_NE(obj, nullptr) << key;
  for_each_field<S>([&](const auto& f) {
    const Json* v = obj->find(f.name);
    ASSERT_NE(v, nullptr) << key << "." << f.name;
    EXPECT_EQ(v->number(), static_cast<double>(s.*f.member)) << key << "." << f.name;
  });
}

TEST(FieldsJson, SimResultJsonCarriesEveryListedField) {
  sim::SimResult r;
  r.first_failure_years = 2.5;
  r.elapsed_years = 3.25;
  r.records_processed = 1000;
  r.erase_summary.mean = 4.5;
  r.erase_summary.stddev = 0.75;
  r.erase_summary.max = 9;
  std::uint64_t next = 1;
  fill_distinct(r.counters, next);
  fill_distinct(r.chip_counters, next);
  fill_distinct(r.leveler_stats, next);
  fill_distinct(r.perf, next);

  const std::optional<Json> doc = Json::parse(bench::sim_result_json(r).dump());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("first_failure_years")->number(), 2.5);
  EXPECT_EQ(doc->find("elapsed_years")->number(), 3.25);
  EXPECT_EQ(doc->find("records_processed")->number(), 1000.0);
  EXPECT_EQ(doc->find("erase_mean")->number(), 4.5);
  EXPECT_EQ(doc->find("erase_stddev")->number(), 0.75);
  EXPECT_EQ(doc->find("erase_max")->number(), 9.0);
  expect_emitted(*doc, "counters", r.counters);
  expect_emitted(*doc, "chip_counters", r.chip_counters);
  expect_emitted(*doc, "leveler_stats", r.leveler_stats);
  expect_emitted(*doc, "perf", r.perf);
}

}  // namespace
}  // namespace swl::runner
