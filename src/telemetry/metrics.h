// Metrics registry: named Counter / Gauge / Histogram instruments cheap
// enough for per-tick hot paths.
//
// The registry is looked up ONCE, at registration time (typically in a
// constructor); the returned instrument pointer is a plain slot — Add/Set/
// Observe are branch-free field updates with no map lookup, no allocation
// and no locking. Instrument pointers stay valid for the registry's
// lifetime (slots live in std::deque, which never relocates elements).
//
// Registering the same name twice returns the SAME instrument, so a
// profile-stage machine and a main-stage machine sharing one Telemetry
// accumulate into one set of counters. The registry is not thread-safe;
// attach one Telemetry per (single-threaded) experiment run.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace sds::telemetry {

class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with one
// implicit overflow bucket above the last bound. Bounds are fixed at
// registration; Observe is a short linear scan over a handful of doubles
// (latency histograms use ~8 buckets), which beats binary search at this size.
//
// Non-finite inputs: +inf lands in the overflow bucket, -inf in bucket 0,
// NaN in the overflow bucket (it is "not inside any bound", and the overflow
// bucket is where unaccountable observations belong). All three are counted
// in count() but EXCLUDED from sum(), so the running sum stays finite and
// mean estimates stay usable after a stray bad sample.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // buckets().size() == bounds().size() + 1 (last bucket = overflow).
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  // Interpolated quantile estimate, q in [0, 1]; see QuantileFromBuckets.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Estimates the q-quantile (q in [0, 1]) of a fixed-bucket histogram by
// linear interpolation inside the bucket where the cumulative count crosses
// q * total, Prometheus-style: bucket i spans (bounds[i-1], bounds[i]], the
// first bucket spans (min(0, bounds[0]), bounds[0]], and a quantile landing
// in the overflow bucket is clamped to the last bound (the histogram cannot
// resolve beyond it). Returns NaN for an empty histogram. buckets.size()
// must equal bounds.size() + 1. Shared by Histogram::Quantile and
// tools/trace_inspect, which recomputes quantiles from serialized buckets.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& buckets,
                           double q);

// Default bucket bounds for latency-in-nanoseconds histograms.
std::vector<double> LatencyNsBounds();

// Streams a double as a JSON number: the stream's own formatting when finite,
// `null` for NaN and infinities (JSON has no spelling for those). Every
// telemetry JSONL writer prints its doubles through this.
struct JsonNumber {
  double value;
};
std::ostream& operator<<(std::ostream& os, JsonNumber n);

class MetricsRegistry {
 public:
  // All three return a stable pointer; re-registering a name returns the
  // existing instrument (for histograms the original bounds are kept).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // One JSONL line per instrument:
  //   {"type":"metric","metric":"counter","name":...,"value":...}
  // Histograms additionally carry "sum", "buckets" and "bounds".
  void WriteJsonl(std::ostream& os) const;

 private:
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  // name -> index into the matching deque; ordered so WriteJsonl output is
  // deterministic.
  std::map<std::string, std::size_t> counter_index_;
  std::map<std::string, std::size_t> gauge_index_;
  std::map<std::string, std::size_t> histogram_index_;
};

}  // namespace sds::telemetry
