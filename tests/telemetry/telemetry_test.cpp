// Unit tests for the telemetry subsystem: metrics registry semantics, event
// tracer ring-buffer overflow behavior, audit log serialization, and the
// combined JSONL stream format read by tools/trace_inspect, which every line
// must keep as strict JSON.
#include "telemetry/telemetry.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/experiment.h"

namespace sds::telemetry {
namespace {

// Minimal recursive-descent JSON validator: enough of RFC 8259 to reject any
// malformed output the writers could plausibly produce (unbalanced braces,
// bare NaN, trailing commas, unescaped control characters in strings).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n) return false;
    if (std::strncmp(p_, lit, n) != 0) return false;
    p_ += n;
    return true;
  }
  bool String() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c < 0x20) return false;  // raw control character
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            ++p_;
            break;
          case 'u': {
            ++p_;
            for (int i = 0; i < 4; ++i, ++p_) {
              if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
                return false;
            }
            break;
          }
          default:
            return false;
        }
      } else {
        ++p_;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
      return false;
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
        return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_)))
        return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    return p_ != start;
  }
  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool Value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const char* p_;
  const char* end_;
};

bool IsValidJson(const std::string& text) {
  return JsonValidator(text).Validate();
}


TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("sim.hits");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("vm.runnable");
  g->Set(3.0);
  g->Set(7.5);
  EXPECT_DOUBLE_EQ(g->value(), 7.5);
}

TEST(MetricsTest, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(5);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetHistogram("h", {1.0}),
            registry.GetHistogram("h", {2.0, 3.0}));
}

TEST(MetricsTest, InstrumentPointersSurviveFurtherRegistration) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("first");
  for (int i = 0; i < 1000; ++i) {
    // Appended, not `"c" + std::to_string(i)`: g++ 12 at -O3 reports a
    // false -Wrestrict inside operator+ on the temporary.
    std::string name = "c";
    name += std::to_string(i);
    registry.GetCounter(name);
  }
  first->Add(7);
  EXPECT_EQ(registry.GetCounter("first")->value(), 7u);
}

TEST(MetricsTest, HistogramBucketsObservations) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {10.0, 20.0, 30.0});
  h->Observe(5.0);    // bucket 0
  h->Observe(10.0);   // bucket 0 (<= bound)
  h->Observe(15.0);   // bucket 1
  h->Observe(100.0);  // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 130.0);
  ASSERT_EQ(h->buckets().size(), 4u);
  EXPECT_EQ(h->buckets()[0], 2u);
  EXPECT_EQ(h->buckets()[1], 1u);
  EXPECT_EQ(h->buckets()[2], 0u);
  EXPECT_EQ(h->buckets()[3], 1u);
}

TEST(MetricsTest, HistogramRoutesNonFiniteWithoutPoisoningSum) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {10.0, 20.0});
  h->Observe(std::numeric_limits<double>::quiet_NaN());
  h->Observe(std::numeric_limits<double>::infinity());
  h->Observe(-std::numeric_limits<double>::infinity());
  h->Observe(15.0);  // the only finite observation
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 15.0);  // non-finite excluded from the sum
  ASSERT_EQ(h->buckets().size(), 3u);
  EXPECT_EQ(h->buckets()[0], 1u);  // -inf
  EXPECT_EQ(h->buckets()[1], 1u);  // 15.0
  EXPECT_EQ(h->buckets()[2], 2u);  // NaN and +inf in the overflow bucket
}

TEST(MetricsTest, ValuesAboveLastBoundLandInOverflowBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {10.0, 20.0});
  h->Observe(20.0);     // == last bound: NOT overflow
  h->Observe(20.0001);  // just beyond: overflow
  h->Observe(1e18);     // far beyond: overflow
  ASSERT_EQ(h->buckets().size(), 3u);
  EXPECT_EQ(h->buckets()[1], 1u);
  EXPECT_EQ(h->buckets()[2], 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 40.0001 + 1e18);  // finite values still summed
}

TEST(MetricsTest, QuantileInterpolatesWithinBuckets) {
  const std::vector<double> bounds{10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> buckets{10, 10, 10, 0};
  // Median rank 15 sits halfway through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 1.0), 30.0);
}

TEST(MetricsTest, QuantileClampsOverflowToLastBound) {
  const std::vector<double> bounds{10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> buckets{0, 0, 0, 5};
  // Every observation is beyond resolution: all quantiles clamp to 30.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.99), 30.0);
}

TEST(MetricsTest, QuantileOfEmptyHistogramIsNaN) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {10.0});
  EXPECT_TRUE(std::isnan(h->Quantile(0.5)));
  h->Observe(5.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 10.0);
}

TEST(MetricsTest, WriteJsonlEmitsOneLinePerInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Add(3);
  registry.GetGauge("b")->Set(1.5);
  registry.GetHistogram("c", {1.0})->Observe(0.5);
  std::ostringstream os;
  registry.WriteJsonl(os);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_NE(line.find("\"type\":\"metric\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(os.str().find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(os.str().find("\"buckets\":[1,0]"), std::string::npos);
}

TEST(TracerTest, LayerNamesAreDotted) {
  EXPECT_STREQ(LayerName(Layer::kSimBus), "sim.bus");
  EXPECT_STREQ(LayerName(Layer::kDetect), "detect");
}

TEST(TracerTest, AllLayersEnabledByDefault) {
  EventTracer tracer(8);
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    EXPECT_TRUE(tracer.enabled(static_cast<Layer>(i)));
  }
}

TEST(TracerTest, DisabledLayerEventsAreNotRecorded) {
  EventTracer tracer(8);
  tracer.DisableLayer(Layer::kSimBus);
  EXPECT_FALSE(tracer.enabled(Layer::kSimBus));
  tracer.Emit(MakeEvent(1, Layer::kSimBus, "lock_window_open"));
  EXPECT_EQ(tracer.retained(), 0u);
  EXPECT_EQ(tracer.emitted(), 0u);
  tracer.EnableLayer(Layer::kSimBus);
  tracer.Emit(MakeEvent(2, Layer::kSimBus, "lock_window_open"));
  EXPECT_EQ(tracer.retained(), 1u);
}

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  EventTracer tracer(4);
  for (Tick t = 0; t < 10; ++t) {
    tracer.Emit(MakeEvent(t, Layer::kVm, "e"));
  }
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  ASSERT_EQ(tracer.retained(), 4u);
  // The retained window is the NEWEST four events, oldest first.
  EXPECT_EQ(tracer.event(0).tick, 6);
  EXPECT_EQ(tracer.event(3).tick, 9);
}

TEST(TracerTest, DropAccountingSurvivesFlush) {
  EventTracer tracer(4);
  for (Tick t = 0; t < 10; ++t) {
    tracer.Emit(MakeEvent(t, Layer::kVm, "e"));
  }
  std::ostringstream os;
  EXPECT_EQ(tracer.FlushJsonl(os), 4u);
  // Flushing drains the window but keeps the lifetime emitted/dropped
  // counters: the incident report's "[N older events dropped]" annotation
  // depends on this.
  EXPECT_EQ(tracer.retained(), 0u);
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(TracerTest, EventFieldsSerializeToJson) {
  TraceEvent e = MakeEvent(17, Layer::kSimCache, "cross_owner_eviction", 3);
  e.Num("set", 12).Str("note", "x");
  std::ostringstream os;
  WriteEventJson(os, e);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"tick\":17"), std::string::npos);
  EXPECT_NE(json.find("\"layer\":\"sim.cache\""), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"cross_owner_eviction\""), std::string::npos);
  EXPECT_NE(json.find("\"owner\":3"), std::string::npos);
  EXPECT_NE(json.find("\"set\":12"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"x\""), std::string::npos);
}

TEST(TracerTest, FlushJsonlDrainsRing) {
  EventTracer tracer(8);
  tracer.Emit(MakeEvent(1, Layer::kPcm, "sample"));
  tracer.Emit(MakeEvent(2, Layer::kPcm, "sample"));
  std::ostringstream os;
  EXPECT_EQ(tracer.FlushJsonl(os), 2u);
  EXPECT_EQ(tracer.retained(), 0u);
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 2);
}

TEST(AuditTest, RecordsAccumulateAndSerialize) {
  AuditLog log;
  AuditRecord r;
  r.tick = 100;
  r.detector = "SDS/B";
  r.check = "boundary";
  r.channel = "AccessNum";
  r.value = 5.0;
  r.lower = 1.0;
  r.upper = 4.0;
  r.margin = 0.5;
  r.violation = true;
  r.consecutive = 2;
  r.alarm = false;
  log.Append(r);
  EXPECT_EQ(log.size(), 1u);
  std::ostringstream os;
  log.WriteJsonl(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"type\":\"audit\""), std::string::npos);
  EXPECT_NE(json.find("\"detector\":\"SDS/B\""), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"boundary\""), std::string::npos);
  EXPECT_NE(json.find("\"violation\":true"), std::string::npos);
  EXPECT_NE(json.find("\"consecutive\":2"), std::string::npos);
}

// The whole Telemetry::WriteJsonl stream, one string per line.
std::vector<std::string> StreamLines(Telemetry& telemetry) {
  std::ostringstream os;
  telemetry.WriteJsonl(os);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

TEST(TelemetryTest, WriteJsonlEmitsHeaderEventsAuditsMetrics) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("c")->Add(1);
  telemetry.tracer().Emit(MakeEvent(5, Layer::kEval, "stage_begin"));
  AuditRecord r;
  r.detector = "SDS";
  r.check = "boundary";
  telemetry.audit().Append(r);

  const std::vector<std::string> lines = StreamLines(telemetry);
  ASSERT_GE(lines.size(), 5u);
  EXPECT_NE(lines[0].find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"tracer_stats\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"type\":\"audit\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"type\":\"metric\""), std::string::npos);
}

TEST(TelemetryTest, WriteJsonlFileRoundTripsThroughFilesystem) {
  Telemetry telemetry;
  telemetry.tracer().Emit(MakeEvent(1, Layer::kVm, "vm_created", 2));
  const std::string path = ::testing::TempDir() + "/sds_telemetry_test.jsonl";
  ASSERT_TRUE(telemetry.WriteJsonlFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string first;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, first)));
  EXPECT_NE(first.find("\"type\":\"header\""), std::string::npos);
}

TEST(JsonValidatorSelfTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2.5,-3e4,null,true,\"x\\n\"]}"));
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_FALSE(IsValidJson("{\"a\":}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("{\"a\":NaN}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1}garbage"));
  EXPECT_FALSE(IsValidJson("{\"a\":\"unterminated}"));
}

// A short monitored run with every writer attached: the simulator's events,
// the detector's audit records, the eval stage gauges and the metrics the
// layers register. Every line of the stream must be strict JSON.
TEST(TelemetryTest, MonitoredRunStreamIsStrictJson) {
  Telemetry telemetry;
  eval::DetectionRunConfig config;  // kmeans under a bus-lock attack, SDS
  config.profile_ticks = 3000;
  config.clean_ticks = 2000;
  config.attack_ticks = 3000;
  config.scenario.machine.telemetry = &telemetry;
  (void)eval::RunDetectionRun(config, /*seed=*/7);
  ASSERT_GT(telemetry.audit().size(), 0u);

  const std::vector<std::string> lines = StreamLines(telemetry);
  ASSERT_GT(lines.size(), telemetry.audit().size());
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsValidJson(line)) << line;
  }
}

// NaN and infinities have no JSON spelling; every writer prints them as null.
TEST(TelemetryTest, NonFiniteNumbersBecomeNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Telemetry telemetry;
  telemetry.tracer().Emit(
      MakeEvent(3, Layer::kDetect, "check").Num("value", nan).Num("z", -inf));
  telemetry.audit().Append({.value = inf, .margin = nan});
  telemetry.metrics().GetGauge("g.nan")->Set(nan);
  Histogram* h = telemetry.metrics().GetHistogram("h", {1.0, inf});
  h->Observe(2.0);

  // Lines: header, tracer_stats, event, audit, then the gauges by name
  // (g.nan, telemetry.tracer.{dropped,emitted}) and the histogram.
  const std::vector<std::string> lines = StreamLines(telemetry);
  ASSERT_EQ(lines.size(), 8u);
  for (const std::string& line : lines) EXPECT_TRUE(IsValidJson(line)) << line;
  EXPECT_NE(lines[2].find("\"value\":null,\"z\":null"), std::string::npos);
  EXPECT_NE(lines[3].find("\"value\":null,\"lower\":0,\"upper\":0,"
                          "\"margin\":null"),
            std::string::npos);
  EXPECT_NE(lines[4].find("\"name\":\"g.nan\",\"value\":null"),
            std::string::npos);
  EXPECT_NE(lines[7].find("\"sum\":2,\"bounds\":[1,null]"), std::string::npos);
}

}  // namespace
}  // namespace sds::telemetry
