// Fleet-scale observability sweep (DESIGN.md §13, EXPERIMENTS.md).
//
// Drives the obs plane end to end at fleet scale: a synthetic deterministic
// stream of per-(host, tenant) detector health metrics — detection latency,
// false alarms, mitigation convergence, sampler delivery — with a known
// ground-truth set of attacked pairs and a fixed attack interval. The stream
// is ingested through the sharded FleetRollup (each worker regenerates the
// stream and filters to its shard — no cross-thread handoff, bit-identical
// at any worker count), barrier-merged, scored by the SLO engine, and
// compared against the ground truth to produce an alert precision/recall
// curve across detection thresholds.
//
// Three headline numbers feed BENCH_fleetobs.json: ingest rate
// (samples/sec across shards), rollup memory ceiling (bytes of live series
// state), and the precision/recall curve. The sweep also re-runs the same
// stream single-sharded and cross-checks the merged rollup is bit-identical
// — the determinism pin, exercised at bench scale on every CI run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/rollup.h"
#include "obs/slo.h"

namespace sds::eval {

struct FleetObsConfig {
  std::uint32_t hosts = 8;
  std::uint32_t tenants_per_host = 4;
  Tick ticks = 2000;
  Tick window_ticks = 100;
  std::uint32_t shards = 4;
  int threads = 4;
  std::size_t max_series_per_shard = 4096;
  std::uint64_t seed = 42;
  // Fraction of (host, tenant) pairs under attack during the attack
  // interval [ticks/3, 2*ticks/3).
  double attacked_fraction = 0.25;
  // Detection-latency thresholds (ticks) swept for the precision/recall
  // curve.
  std::vector<double> thresholds = {300, 400, 500, 600, 700, 800};
  // Skip the single-shard cross-check (it doubles the work).
  bool verify_single_shard = true;
};

struct ThresholdPoint {
  double threshold = 0.0;
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t true_negatives = 0;
  double precision = 0.0;
  double recall = 0.0;
};

struct FleetObsResult {
  std::uint64_t samples = 0;
  std::uint64_t rows = 0;
  double ingest_wall_seconds = 0.0;
  double ingest_rate_per_sec = 0.0;
  std::size_t rollup_memory_bytes = 0;
  std::size_t live_series = 0;
  std::uint64_t dropped_late = 0;
  std::uint64_t dropped_series = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t attacked_pairs = 0;
  // SLO engine outcome on the merged stream.
  std::uint64_t slo_alerts = 0;
  std::uint64_t slo_pages = 0;
  std::uint64_t slo_warns = 0;
  std::vector<ThresholdPoint> curve;
  // Single-shard cross-check: true when the sharded merge reproduced the
  // reference stream bit-identically (always true when verification ran).
  bool verified_single_shard = false;
  bool sharded_matches_single_shard = false;
};

// Runs the sweep. When `rollup_out` is non-null, the merged rollup stream,
// rollup_stats accounting line, SLO alerts and rule status are written to it
// as JSONL — the input of tools/trace_inspect.
FleetObsResult RunFleetObsSweep(const FleetObsConfig& config,
                                std::ostream* rollup_out = nullptr);

// BENCH_fleetobs JSON object (one line, no trailing newline).
void WriteFleetObsJson(const FleetObsConfig& config,
                       const FleetObsResult& result, std::ostream& os);

}  // namespace sds::eval
