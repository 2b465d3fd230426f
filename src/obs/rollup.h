// Sharded fleet time-series aggregator with deterministic barrier merges
// (DESIGN.md §13).
//
// Samples are keyed by (host, tenant, metric). The stream is split across
// shards BY KEY — ShardOf hashes the key, so every sample of one series
// lands on the same shard regardless of shard count. Each shard accumulates
// fixed-memory window statistics (count/sum/min/max plus a QuantileSketch)
// per live series; at a window barrier the shards' sealed windows are merged
// into one stream ordered by (window, key).
//
// DETERMINISM: because shards own disjoint key sets and per-key samples
// arrive in stream order, the floating-point accumulation order of every
// series is identical at ANY shard count. The merged rollup stream is pinned
// bit-identical to a single-shard reference by tests/obs/rollup_test — this
// is what lets bench_fleetobs scale ingest across threads without changing a
// single reported number.
//
// MEMORY CEILING: each shard tracks at most max_series_per_shard live
// series; a sample for a new key beyond the ceiling is dropped and counted
// (dropped_samples / dropped_series). When the ceiling binds, which keys are
// admitted depends on the shard split — the bit-identity guarantee holds for
// fleets within the ceiling, and the accounting makes any truncation loud.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "obs/quantile_sketch.h"

namespace sds::telemetry {
class EventTracer;
}  // namespace sds::telemetry

namespace sds::obs {

// Interned metric name; assigned by FleetRollup::RegisterMetric.
using MetricId = std::uint32_t;

struct SeriesKey {
  std::uint32_t host = 0;
  std::uint32_t tenant = 0;
  MetricId metric = 0;

  friend bool operator==(const SeriesKey&, const SeriesKey&) = default;
  friend auto operator<=>(const SeriesKey&, const SeriesKey&) = default;
};

struct ObsSample {
  Tick tick = 0;
  SeriesKey key;
  double value = 0.0;
};

// Fixed-memory statistics of one series over one window.
struct WindowStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  QuantileSketch sketch;

  void Add(double v);
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// One sealed (window, series) cell of the rollup stream. Quantiles are
// evaluated at seal time so completed windows are compact PODs; the sketch
// memory stays bounded by LIVE series only.
struct RollupRow {
  std::int64_t window = 0;  // window index: [window*W, (window+1)*W) ticks
  SeriesKey key;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct RollupConfig {
  // Window width in ticks. Samples with tick t belong to window t / W.
  Tick window_ticks = 100;
  std::uint32_t shards = 1;
  // Live-series ceiling per shard (fixed-memory guarantee).
  std::size_t max_series_per_shard = 4096;
};

// Per-shard writer. NOT thread-safe internally; safe to use from one thread
// per shard while other shards ingest concurrently (no shared state).
class ShardWriter {
 public:
  ShardWriter(const RollupConfig& config, std::uint32_t shard_index);

  // Ingests one sample whose key this shard owns. Samples older than the
  // last sealed window are dropped as late (the window already merged).
  void Ingest(const ObsSample& sample);

  // Seals every live window strictly before `window` and appends the rows
  // to `out` (unordered across shards; FleetRollup sorts at the barrier).
  void Drain(std::int64_t window, std::vector<RollupRow>* out);

  std::uint64_t ingested() const { return ingested_; }
  std::uint64_t dropped_late() const { return dropped_late_; }
  // Distinct keys locked out by the ceiling (exact up to max_series_per_shard
  // distinct rejected keys, a lower bound beyond — the tracking set is
  // bounded too).
  std::uint64_t dropped_series() const { return dropped_series_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  std::size_t live_series() const { return series_.size(); }
  std::size_t ApproxMemoryBytes() const;

 private:
  struct SeriesState {
    std::int64_t window = 0;
    WindowStats stats;
  };

  void Seal(const SeriesKey& key, const SeriesState& state);

  // The whole writer is shard-owned: BarrierMerge workers each drive exactly
  // one ShardWriter, so no field here may ever need a lock — sdslint's
  // conc-shard-owned rule rejects any future method that acquires one.
  RollupConfig config_ SDS_SHARD_OWNED;
  std::uint32_t shard_index_ SDS_SHARD_OWNED;
  // Ordered so Drain emits deterministically regardless of arrival order.
  std::map<SeriesKey, SeriesState> series_ SDS_SHARD_OWNED;
  // Distinct keys rejected at the ceiling, capped at the ceiling itself.
  std::set<SeriesKey> rejected_keys_ SDS_SHARD_OWNED;
  // Rows sealed by in-place roll-over, awaiting the next barrier.
  std::vector<RollupRow> pending_ SDS_SHARD_OWNED;
  std::int64_t sealed_before_ SDS_SHARD_OWNED = 0;
  std::uint64_t ingested_ SDS_SHARD_OWNED = 0;
  std::uint64_t dropped_late_ SDS_SHARD_OWNED = 0;
  std::uint64_t dropped_series_ SDS_SHARD_OWNED = 0;
  std::uint64_t dropped_samples_ SDS_SHARD_OWNED = 0;
};

// Shard assignment: pure function of the key, independent of shard count
// only in the sense that all samples of one key agree — splitting the same
// stream across more shards re-partitions keys but never splits a series.
std::uint32_t ShardOf(const SeriesKey& key, std::uint32_t shard_count);

class FleetRollup {
 public:
  explicit FleetRollup(const RollupConfig& config);

  // Interns a metric name (idempotent). Registration order defines the
  // MetricId order, so callers must register deterministically.
  MetricId RegisterMetric(const std::string& name);
  const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  std::uint32_t shard_count() const { return config_.shards; }
  ShardWriter& shard(std::uint32_t index) { return shards_[index]; }
  const RollupConfig& config() const { return config_; }

  // Convenience single-threaded ingest: routes to the owning shard.
  void Ingest(const ObsSample& sample);

  // Barrier: seals every window strictly before tick / window_ticks across
  // all shards, merges the sealed rows ordered by (window, key), appends
  // them to completed() and returns the number of rows sealed.
  std::size_t BarrierMerge(Tick up_to_tick);

  const std::vector<RollupRow>& completed() const { return completed_; }

  // Fleet-wide accounting (sums over shards).
  std::uint64_t ingested() const;
  std::uint64_t dropped_late() const;
  std::uint64_t dropped_series() const;
  std::uint64_t dropped_samples() const;
  std::size_t live_series() const;
  std::size_t ApproxMemoryBytes() const;

  // One JSONL line per completed rollup row (type "rollup"), plus a trailing
  // accounting line (type "rollup_stats"); the stream trace_inspect reads.
  void WriteJsonl(std::ostream& os) const;

 private:
  RollupConfig config_;
  std::vector<ShardWriter> shards_;
  std::vector<std::string> metric_names_;
  std::map<std::string, MetricId> metric_index_;
  std::vector<RollupRow> completed_;
};

// Tracer-ingest adapter: feeds the telemetry ring's saturation accounting
// (emitted / dropped totals) into the rollup as per-host samples, so ring
// overflow shows up in fleet rollups and SLO rules, not only in
// trace_inspect. Registers metrics "tracer.emitted" and "tracer.dropped".
void IngestTracerStats(const telemetry::EventTracer& tracer, Tick tick,
                       std::uint32_t host, std::uint32_t tenant,
                       FleetRollup* rollup);

}  // namespace sds::obs
