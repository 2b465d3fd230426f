#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/check.h"

namespace sds::telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SDS_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  SDS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
            "histogram bounds must be sorted");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  if (!std::isfinite(value)) [[unlikely]] {
    // NaN and +inf go to the overflow bucket, -inf to the first; none of
    // them contaminates the running sum (see the class comment).
    ++buckets_[value < 0.0 ? 0 : buckets_.size() - 1];
    ++count_;
    return;
  }
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const {
  return QuantileFromBuckets(bounds_, buckets_, q);
}

double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& buckets,
                           double q) {
  SDS_CHECK(buckets.size() == bounds.size() + 1,
            "buckets must be one longer than bounds");
  SDS_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return std::nan("");
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next < rank && i + 1 < buckets.size()) {
      cumulative = next;
      continue;
    }
    if (i == bounds.size()) return bounds.back();  // overflow: clamp
    const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    const double upper = bounds[i];
    if (buckets[i] == 0) return upper;
    const double fraction =
        std::clamp((rank - cumulative) / static_cast<double>(buckets[i]),
                   0.0, 1.0);
    return lower + (upper - lower) * fraction;
  }
  return bounds.back();
}

std::vector<double> LatencyNsBounds() {
  return {50.0, 80.0, 120.0, 200.0, 400.0, 800.0, 1600.0, 6400.0};
}

std::ostream& operator<<(std::ostream& os, JsonNumber n) {
  if (std::isfinite(n.value)) return os << n.value;
  return os << "null";
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return &counters_[it->second];
  counter_index_[name] = counters_.size();
  return &counters_.emplace_back();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return &gauges_[it->second];
  gauge_index_[name] = gauges_.size();
  return &gauges_.emplace_back();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return &histograms_[it->second];
  histogram_index_[name] = histograms_.size();
  return &histograms_.emplace_back(std::move(bounds));
}

void MetricsRegistry::WriteJsonl(std::ostream& os) const {
  for (const auto& [name, idx] : counter_index_) {
    os << "{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"" << name
       << "\",\"value\":" << counters_[idx].value() << "}\n";
  }
  for (const auto& [name, idx] : gauge_index_) {
    os << "{\"type\":\"metric\",\"metric\":\"gauge\",\"name\":\"" << name
       << "\",\"value\":" << JsonNumber{gauges_[idx].value()} << "}\n";
  }
  for (const auto& [name, idx] : histogram_index_) {
    const Histogram& h = histograms_[idx];
    os << "{\"type\":\"metric\",\"metric\":\"histogram\",\"name\":\"" << name
       << "\",\"count\":" << h.count() << ",\"sum\":" << JsonNumber{h.sum()}
       << ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) os << ',';
      os << JsonNumber{h.bounds()[i]};
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      if (i) os << ',';
      os << h.buckets()[i];
    }
    os << "]}\n";
  }
}

}  // namespace sds::telemetry
