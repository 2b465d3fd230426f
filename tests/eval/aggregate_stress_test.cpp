// Thread-stress companion to aggregate_test.cpp, sized for the TSan CI job:
// the ParallelFor and aggregation tests drive the parallel path with >= 8
// workers so the race detector sees real interleavings (worker count
// deliberately exceeds the iteration count in one case, and contention on
// shared state is part of the workload in another). The sweep tests run the
// real sweep functions through the cell runner (its own min(cells, cores)
// worker policy), which takes the fault injector, degradation gate, cluster,
// lifecycle and evacuation code onto concurrent threads. Under plain builds
// this doubles as a cheap smoke that worker count never changes results.
#include "eval/aggregate.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "eval/hostchaos.h"
#include "eval/report.h"
#include "eval/robustness.h"

namespace sds::eval {
namespace {

constexpr int kStressWorkers = 8;

TEST(ParallelForStressTest, ManyWorkersVisitEveryIndexExactlyOnce) {
  constexpr int kIterations = 10000;
  std::vector<std::atomic<int>> visits(kIterations);
  ParallelFor(kIterations, kStressWorkers,
              [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
}

TEST(ParallelForStressTest, MoreWorkersThanIterations) {
  std::vector<std::atomic<int>> visits(3);
  ParallelFor(3, kStressWorkers * 4,
              [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForStressTest, SharedAccumulationUnderContention) {
  constexpr int kIterations = 5000;
  std::atomic<std::int64_t> atomic_sum{0};
  std::int64_t locked_sum = 0;
  std::set<int> locked_seen;
  std::mutex mu;
  ParallelFor(kIterations, kStressWorkers, [&](int i) {
    atomic_sum.fetch_add(i, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu);
    locked_sum += i;
    locked_seen.insert(i);
  });
  const std::int64_t expected =
      static_cast<std::int64_t>(kIterations) * (kIterations - 1) / 2;
  EXPECT_EQ(atomic_sum.load(), expected);
  EXPECT_EQ(locked_sum, expected);
  EXPECT_EQ(locked_seen.size(), static_cast<std::size_t>(kIterations));
}

// The real threaded hot path: detection runs fan out across workers and
// write disjoint slots of the results vector. 8 workers over 8 seeds gives
// TSan one thread per run; results must be identical to the single-threaded
// aggregation (the determinism contract shrunk to a unit test).
TEST(AggregateStressTest, EightWorkerDetectionMatchesSerial) {
  DetectionRunConfig cfg;
  cfg.app = "bayes";
  cfg.attack = AttackKind::kBusLock;
  cfg.scheme = Scheme::kSds;
  cfg.profile_ticks = 6000;
  cfg.clean_ticks = 5000;
  cfg.attack_ticks = 8000;
  constexpr int kRuns = 8;
  const auto parallel = AggregateDetection(cfg, kRuns, 10, kStressWorkers);
  const auto serial = AggregateDetection(cfg, kRuns, 10, 1);
  EXPECT_EQ(parallel.runs, kRuns);
  EXPECT_EQ(parallel.detected_runs, serial.detected_runs);
  EXPECT_DOUBLE_EQ(parallel.recall.median, serial.recall.median);
  EXPECT_DOUBLE_EQ(parallel.specificity.median, serial.specificity.median);
  EXPECT_DOUBLE_EQ(parallel.delay_seconds.median, serial.delay_seconds.median);
  EXPECT_DOUBLE_EQ(parallel.delay_seconds.p90, serial.delay_seconds.p90);
}

TEST(AggregateStressTest, EightWorkerOverheadMatchesSerial) {
  OverheadRunConfig cfg;
  cfg.app = "bayes";
  cfg.scheme = Scheme::kNone;
  cfg.work_target_units = 500;
  const auto parallel = AggregateOverhead(cfg, 8, 5, kStressWorkers);
  const auto serial = AggregateOverhead(cfg, 8, 5, 1);
  EXPECT_DOUBLE_EQ(parallel.normalized_time.median,
                   serial.normalized_time.median);
  EXPECT_DOUBLE_EQ(parallel.normalized_time.p10, serial.normalized_time.p10);
  EXPECT_DOUBLE_EQ(parallel.normalized_time.p90, serial.normalized_time.p90);
}

// Three robustness cells (baseline + two fault kinds) at once; each must
// equal its single run made serially on this thread.
TEST(SweepStressTest, RobustnessSweepCellsMatchSerialRuns) {
  RobustnessSweepConfig config;
  config.run.app = "bayes";
  config.run.attack = AttackKind::kBusLock;
  config.run.scheme = Scheme::kSds;
  config.run.profile_ticks = 3000;
  config.run.clean_ticks = 3000;
  config.run.attack_ticks = 3000;
  config.run.eval_interval = 500;
  config.kinds = {fault::FaultKind::kDropSample,
                  fault::FaultKind::kSamplerDeath};
  config.rates = {0.1};
  config.runs_per_cell = 1;
  const RobustnessSweepResult result = RunRobustnessSweep(config);
  ASSERT_EQ(result.cells.size(), 2u);

  std::vector<RobustnessCell> cells = {result.baseline};
  cells.insert(cells.end(), result.cells.begin(), result.cells.end());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(i);
    RobustnessRunConfig robust;
    if (i > 0) robust.plan = fault::FaultPlan::Single(cells[i].kind, 0.1, 0);
    robust.plan.seed = config.fault_seed + std::uint64_t{0x9e3779b97f4a7c15};
    RobustnessCounters counters;
    const DetectionRunResult run = RunDetectionRunFaulted(
        config.run, config.base_seed, robust, &counters);
    EXPECT_EQ(cells[i].detected_runs, run.detected ? 1 : 0);
    EXPECT_EQ(cells[i].mean_delay_ticks,
              run.detected
                  ? static_cast<double>(*run.detection_delay_ticks)
                  : -1.0);
    EXPECT_EQ(cells[i].true_negative_intervals, run.true_negative_intervals);
    EXPECT_EQ(cells[i].false_positive_intervals,
              run.false_positive_intervals);
    EXPECT_EQ(cells[i].counters.fault.injected, counters.fault.injected);
    EXPECT_EQ(cells[i].counters.degrade.gap_ticks, counters.degrade.gap_ticks);
  }
}

// Two host-chaos cells at once: cluster, lifecycle, evacuation and handoff
// code on concurrent threads.
TEST(SweepStressTest, HostChaosSweepRunsCellsConcurrently) {
  HostChaosSweepConfig sweep;
  sweep.run.attack_start = 500;
  sweep.run.horizon = 3000;
  sweep.run.params.window = 100;
  sweep.run.params.step = 25;
  sweep.run.params.h_c = 8;
  sweep.migration_periods = {400};
  sweep.crash_rates = {0.001};
  sweep.scheduled_crash_after = 400;
  sweep.scheduled_crash_down = 600;
  sweep.runs_per_cell = 1;
  const HostChaosSweepResult result = RunHostChaosSweep(sweep);
  ASSERT_EQ(result.migration_cells.size(), 1u);
  ASSERT_EQ(result.chaos_cells.size(), 1u);
  EXPECT_GT(result.migration_cells[0].warm.migrations, 0);
  EXPECT_GT(result.chaos_cells[0].warm.evac_migrated, 0u);
  EXPECT_TRUE(result.warm_strictly_better);
}

}  // namespace
}  // namespace sds::eval
