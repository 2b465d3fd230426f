// Tests for the JSONL line reader behind trace_inspect (tools/jsonl.h).
#include "jsonl.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sds::tools {
namespace {

TEST(Jsonl, FlatRecordKeepsRawValues) {
  JsonObject o;
  ASSERT_TRUE(ParseLine(
      R"({"type":"event","tick":23041,"layer":"sim.bus","ok":true,"x":null})",
      o));
  EXPECT_EQ(o.size(), 5u);
  EXPECT_EQ(StrOr(o, "type", ""), "event");
  EXPECT_EQ(StrOr(o, "layer", ""), "sim.bus");
  EXPECT_EQ(IntOr(o, "tick", -1), 23041);
  EXPECT_TRUE(IsTrue(o, "ok"));
  EXPECT_FALSE(IsTrue(o, "x"));
  EXPECT_EQ(StrOr(o, "x", ""), "null");
  EXPECT_EQ(StrOr(o, "missing", "fallback"), "fallback");
  EXPECT_EQ(NumOr(o, "layer", 7.5), 7.5);  // not a number -> fallback
  // Whitespace between tokens and an empty object are fine.
  ASSERT_TRUE(ParseLine(R"(  { "a" : 1 , "b" : "two" })", o));
  EXPECT_EQ(IntOr(o, "a", 0), 1);
  EXPECT_EQ(StrOr(o, "b", ""), "two");
  ASSERT_TRUE(ParseLine("{}", o));
  EXPECT_TRUE(o.empty());
}

TEST(Jsonl, OneLevelNestedObjectIsKeptVerbatim) {
  JsonObject o;
  ASSERT_TRUE(ParseLine(
      R"({"files_scanned":3,"rule_hits":{"det-rand":2,"layer-dag":1}})", o));
  EXPECT_EQ(StrOr(o, "rule_hits", ""), R"({"det-rand":2,"layer-dag":1})");
  JsonObject hits;
  ASSERT_TRUE(ParseLine(StrOr(o, "rule_hits", "{}"), hits));
  EXPECT_EQ(IntOr(hits, "det-rand", 0), 2);
  EXPECT_EQ(IntOr(hits, "layer-dag", 0), 1);
}

TEST(Jsonl, NumericArray) {
  JsonObject o;
  ASSERT_TRUE(ParseLine(R"({"bounds":[10,50,100],"buckets":[0,4,6,0]})", o));
  EXPECT_EQ(ParseNumberArray(StrOr(o, "bounds", "")),
            (std::vector<double>{10, 50, 100}));
  EXPECT_EQ(ParseNumberArray(StrOr(o, "buckets", "")).size(), 4u);
  // Damaged elements are skipped, a non-array yields nothing.
  EXPECT_EQ(ParseNumberArray("[1,x,3]"), (std::vector<double>{1, 3}));
  EXPECT_TRUE(ParseNumberArray("[]").empty());
  EXPECT_TRUE(ParseNumberArray("12").empty());
}

TEST(Jsonl, ObjectArray) {
  JsonObject o;
  ASSERT_TRUE(ParseLine(
      R"({"suspects":[{"vm":2,"score":0.59},{"vm":5,"score":0.06}]})", o));
  const auto suspects = ParseObjectArray(StrOr(o, "suspects", "[]"));
  ASSERT_EQ(suspects.size(), 2u);
  EXPECT_EQ(IntOr(suspects[0], "vm", 0), 2);
  EXPECT_DOUBLE_EQ(NumOr(suspects[0], "score", 0.0), 0.59);
  EXPECT_EQ(IntOr(suspects[1], "vm", 0), 5);
  // A damaged element is dropped, the rest survive.
  EXPECT_EQ(ParseObjectArray(R"([{"vm":1},{"vm"},{"vm":3}])").size(), 2u);
}

TEST(Jsonl, TruncatedLineIsRejected) {
  const std::string full = R"({"type":"event","tick":8,"layer":"vm"})";
  JsonObject o;
  ASSERT_TRUE(ParseLine(full, o));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(ParseLine(full.substr(0, cut), o)) << "cut at " << cut;
  }
}

TEST(Jsonl, TrailingGarbageIsRejected) {
  JsonObject o;
  // Two records glued onto one line must not silently lose the second.
  EXPECT_FALSE(ParseLine(
      R"({"type":"event","tick":6}{"type":"event","tick":7})", o));
  EXPECT_FALSE(ParseLine(R"({"type":"event"} x)", o));
  EXPECT_FALSE(ParseLine(R"({"type":"event"},)", o));
  EXPECT_FALSE(ParseLine(R"({}})", o));
  // Trailing whitespace is not garbage.
  EXPECT_TRUE(ParseLine("{\"type\":\"event\"}  \t ", o));
}

TEST(Jsonl, CrlfLineParses) {
  JsonObject o;
  ASSERT_TRUE(ParseLine("{\"type\":\"event\",\"tick\":5}\r", o));
  EXPECT_EQ(IntOr(o, "tick", -1), 5);
  EXPECT_TRUE(ParseLine("{}\r", o));
  EXPECT_FALSE(ParseLine("{}\r{}", o));
}

TEST(Jsonl, MissingTypeStillParses) {
  JsonObject o;
  ASSERT_TRUE(ParseLine(R"({"no_type":1})", o));
  EXPECT_EQ(StrOr(o, "type", ""), "");
}

TEST(Jsonl, IntOrRejectsOutOfRangeValues) {
  JsonObject o;
  ASSERT_TRUE(ParseLine(
      R"({"min":-9223372036854775808,"big":1e300,"nan":nan,"neg":-3.9})", o));
  // kInvalidTick (INT64_MIN) is in range and reads back exactly.
  EXPECT_EQ(IntOr(o, "min", 0), -9223372036854775807LL - 1);
  EXPECT_EQ(IntOr(o, "big", -1), -1);
  EXPECT_EQ(IntOr(o, "nan", -1), -1);
  EXPECT_EQ(IntOr(o, "neg", 0), -3);
}

}  // namespace
}  // namespace sds::tools
