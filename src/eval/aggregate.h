// Multi-run aggregation: the paper reports the median and 10th/90th
// percentiles over 20 runs for every accuracy/delay/overhead figure. Runs are
// deterministic per seed and independent, so they execute on a thread pool.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "eval/experiment.h"
#include "stats/descriptive.h"

namespace sds::telemetry {
class Telemetry;
}  // namespace sds::telemetry

namespace sds::eval {

struct AggregatedDetection {
  PercentileSummary recall;
  PercentileSummary specificity;
  // Detection delay in virtual seconds, over detected runs only.
  PercentileSummary delay_seconds;
  int runs = 0;
  int detected_runs = 0;
};

// Runs `runs` seeded repetitions of the detection experiment (seeds
// base_seed, base_seed+1, ...) on up to `threads` worker threads.
AggregatedDetection AggregateDetection(const DetectionRunConfig& config,
                                       int runs, std::uint64_t base_seed,
                                       int threads);

struct AggregatedOverhead {
  // Normalized execution time: scheme completion ticks / baseline (no
  // detection scheme) completion ticks, per seed.
  PercentileSummary normalized_time;
  int runs = 0;
};

AggregatedOverhead AggregateOverhead(const OverheadRunConfig& config,
                                     int runs, std::uint64_t base_seed,
                                     int threads);

// Simple index-parallel loop used by the aggregators and benches. `threads`
// <= 1 runs inline, in index order. Otherwise the calling thread works too,
// beside threads - 1 spawned workers, all claiming indices from one shared
// counter. fn must be safe to call concurrently for distinct i. An exception
// thrown by fn (on any thread, the caller included) stops the loop
// (remaining indices are skipped, in-flight ones finish) and is rethrown on
// the calling thread after every worker joins; with multiple concurrent
// throwers one of them wins.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

// Picks a sensible worker count from the hardware, capped by `max_threads`.
int DefaultThreads(int max_threads = 16);

// Worker count RunCells uses for n cells: min(n, DefaultThreads()), or 1
// when a telemetry handle is attached — its tracer, metrics and audit log are
// not thread-safe, so cells sharing one handle must not overlap.
int CellThreads(int n, const telemetry::Telemetry* telemetry);

// The sweep cell runner: runs cell(0) .. cell(n-1) through ParallelFor and
// returns their results in index order. Each cell must be a pure function of
// the sweep config and its index (seeds come from the index, never from the
// worker), so the result is identical at any thread count. `telemetry` is
// the handle the cells' runs carry, if any (see CellThreads).
template <typename CellFn>
auto RunCells(int n, const telemetry::Telemetry* telemetry, const CellFn& cell)
    -> std::vector<std::invoke_result_t<const CellFn&, int>> {
  std::vector<std::invoke_result_t<const CellFn&, int>> results(
      static_cast<std::size_t>(n));
  ParallelFor(n, CellThreads(n, telemetry), [&](int i) {
    results[static_cast<std::size_t>(i)] = cell(i);
  });
  return results;
}

}  // namespace sds::eval
