#include "eval/robustness.h"

#include <sstream>

#include <gtest/gtest.h>

#include "telemetry/telemetry.h"

namespace sds::eval {
namespace {

// Short stages keep each three-stage run around a hundred milliseconds; the
// invariants under test (determinism, baseline equivalence) are
// length-independent.
DetectionRunConfig FastConfig(Scheme scheme) {
  DetectionRunConfig config;
  config.app = "bayes";
  config.attack = AttackKind::kBusLock;
  config.scheme = scheme;
  config.profile_ticks = 3000;
  config.clean_ticks = 3000;
  config.attack_ticks = 3000;
  config.eval_interval = 500;
  return config;
}

bool SameResult(const DetectionRunResult& a, const DetectionRunResult& b) {
  return a.detected == b.detected &&
         a.detection_delay_ticks == b.detection_delay_ticks &&
         a.true_negative_intervals == b.true_negative_intervals &&
         a.false_positive_intervals == b.false_positive_intervals &&
         a.profile_periodic == b.profile_periodic;
}

TEST(RobustnessRunTest, ZeroRatePlanMatchesPlainRun) {
  // The injector + gate in the loop with an inert plan must not change a
  // single decision: same detection outcome, same interval counts.
  const DetectionRunConfig config = FastConfig(Scheme::kSds);
  const DetectionRunResult plain = RunDetectionRun(config, 42);

  RobustnessRunConfig robust;  // inert plan, default degrade
  RobustnessCounters counters;
  const DetectionRunResult faulted =
      RunDetectionRunFaulted(config, 42, robust, &counters);

  EXPECT_TRUE(SameResult(plain, faulted));
  EXPECT_EQ(counters.fault.injected_total(), 0u);
  EXPECT_EQ(counters.degrade.quarantined, 0u);
  EXPECT_EQ(counters.degrade.substituted, 0u);
  EXPECT_EQ(counters.degrade.watchdog_attempts, 0u);
}

TEST(RobustnessRunTest, FaultedRunIsDeterministic) {
  const DetectionRunConfig config = FastConfig(Scheme::kSds);
  RobustnessRunConfig robust;
  robust.plan = fault::FaultPlan::Single(fault::FaultKind::kDropSample, 0.2,
                                         0xabcull);
  robust.plan.set_rate(fault::FaultKind::kCorruption, 0.05);

  RobustnessCounters a_counters;
  RobustnessCounters b_counters;
  const DetectionRunResult a =
      RunDetectionRunFaulted(config, 7, robust, &a_counters);
  const DetectionRunResult b =
      RunDetectionRunFaulted(config, 7, robust, &b_counters);

  EXPECT_TRUE(SameResult(a, b));
  EXPECT_EQ(a_counters.fault.injected, b_counters.fault.injected);
  EXPECT_EQ(a_counters.fault.missing_ticks, b_counters.fault.missing_ticks);
  EXPECT_EQ(a_counters.degrade.substituted, b_counters.degrade.substituted);
  EXPECT_EQ(a_counters.degrade.quarantined, b_counters.degrade.quarantined);
  // The plan actually fired — determinism over a silent plan proves nothing.
  EXPECT_GT(a_counters.fault.injected_total(), 100u);
}

TEST(RobustnessRunTest, HeavyFaultsActuallyPerturbTheMonitoringPlane) {
  const DetectionRunConfig config = FastConfig(Scheme::kSds);
  RobustnessRunConfig robust;
  robust.plan = fault::FaultPlan::Single(fault::FaultKind::kCounterReset, 0.3,
                                         0x123ull);
  RobustnessCounters counters;
  (void)RunDetectionRunFaulted(config, 11, robust, &counters);
  // Every wrapped delta must be caught by the sanity gate, not fed onward.
  EXPECT_GT(counters.fault.tampered_samples, 100u);
  EXPECT_EQ(counters.degrade.quarantined, counters.fault.tampered_samples);
}

TEST(RobustnessRunTest, CountersAccumulate) {
  RobustnessCounters total;
  RobustnessCounters one;
  one.fault.injected[0] = 3;
  one.fault.missing_ticks = 5;
  one.degrade.substituted = 7;
  one.ks_abandoned_collections = 2;
  total.Accumulate(one);
  total.Accumulate(one);
  EXPECT_EQ(total.fault.injected[0], 6u);
  EXPECT_EQ(total.fault.missing_ticks, 10u);
  EXPECT_EQ(total.degrade.substituted, 14u);
  EXPECT_EQ(total.ks_abandoned_collections, 4u);
}

TEST(RobustnessSweepTest, TinySweepShapeAndJson) {
  RobustnessSweepConfig config;
  config.run = FastConfig(Scheme::kSdsB);
  config.kinds = {fault::FaultKind::kDropSample};
  config.rates = {0.1};
  config.runs_per_cell = 1;

  const RobustnessSweepResult result = RunRobustnessSweep(config);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.baseline.rate, 0.0);
  EXPECT_EQ(result.baseline.runs, 1);
  EXPECT_EQ(result.cells[0].kind, fault::FaultKind::kDropSample);
  EXPECT_DOUBLE_EQ(result.cells[0].rate, 0.1);
  EXPECT_EQ(result.cells[0].runs, 1);
  // The baseline cell routes through an inert injector: nothing injected.
  EXPECT_EQ(result.baseline.counters.fault.injected_total(), 0u);
  EXPECT_GT(result.cells[0].counters.fault.injected_total(), 0u);

  std::ostringstream os;
  WriteRobustnessJson(os, config, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"robustness\""), std::string::npos);
  EXPECT_NE(json.find("\"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"drop_sample\""), std::string::npos);
  EXPECT_NE(json.find("\"recall\""), std::string::npos);
  EXPECT_NE(json.find("\"specificity\""), std::string::npos);
}

// The cell a sweep should report for (plan, kind, rate), folded here from
// serial RunDetectionRunFaulted calls with the sweep's documented seeds.
RobustnessCell SerialCell(const RobustnessSweepConfig& config,
                          const fault::FaultPlan& plan, fault::FaultKind kind,
                          double rate) {
  RobustnessCell cell;
  cell.kind = kind;
  cell.rate = rate;
  double delay_sum = 0.0;
  for (int r = 0; r < config.runs_per_cell; ++r) {
    RobustnessRunConfig robust;
    robust.plan = plan;
    robust.plan.seed =
        config.fault_seed +
        std::uint64_t{0x9e3779b97f4a7c15} * static_cast<std::uint64_t>(r + 1);
    robust.degrade = config.degrade;
    RobustnessCounters counters;
    const DetectionRunResult res = RunDetectionRunFaulted(
        config.run, config.base_seed + static_cast<std::uint64_t>(r), robust,
        &counters);
    ++cell.runs;
    if (res.detected) {
      ++cell.detected_runs;
      delay_sum += static_cast<double>(res.detection_delay_ticks.value_or(0));
    }
    cell.true_negative_intervals += res.true_negative_intervals;
    cell.false_positive_intervals += res.false_positive_intervals;
    cell.counters.Accumulate(counters);
  }
  if (cell.detected_runs > 0) {
    cell.mean_delay_ticks = delay_sum / cell.detected_runs;
  }
  return cell;
}

void ExpectSameCell(const RobustnessCell& a, const RobustnessCell& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.detected_runs, b.detected_runs);
  EXPECT_EQ(a.mean_delay_ticks, b.mean_delay_ticks);
  EXPECT_EQ(a.true_negative_intervals, b.true_negative_intervals);
  EXPECT_EQ(a.false_positive_intervals, b.false_positive_intervals);
  EXPECT_EQ(a.counters.fault.injected, b.counters.fault.injected);
  EXPECT_EQ(a.counters.fault.missing_ticks, b.counters.fault.missing_ticks);
  EXPECT_EQ(a.counters.fault.tampered_samples,
            b.counters.fault.tampered_samples);
  EXPECT_EQ(a.counters.fault.restart_attempts,
            b.counters.fault.restart_attempts);
  EXPECT_EQ(a.counters.fault.restarts_denied,
            b.counters.fault.restarts_denied);
  EXPECT_EQ(a.counters.fault.restarts, b.counters.fault.restarts);
  EXPECT_EQ(a.counters.degrade.delivered, b.counters.degrade.delivered);
  EXPECT_EQ(a.counters.degrade.gap_ticks, b.counters.degrade.gap_ticks);
  EXPECT_EQ(a.counters.degrade.quarantined, b.counters.degrade.quarantined);
  EXPECT_EQ(a.counters.degrade.substituted, b.counters.degrade.substituted);
  EXPECT_EQ(a.counters.degrade.rewarms, b.counters.degrade.rewarms);
  EXPECT_EQ(a.counters.degrade.watchdog_attempts,
            b.counters.degrade.watchdog_attempts);
  EXPECT_EQ(a.counters.degrade.watchdog_restarts,
            b.counters.degrade.watchdog_restarts);
  EXPECT_EQ(a.counters.ks_abandoned_collections,
            b.counters.ks_abandoned_collections);
}

void ExpectSweepMatchesSerialRuns(const RobustnessSweepConfig& config) {
  const RobustnessSweepResult result = RunRobustnessSweep(config);
  {
    SCOPED_TRACE("baseline");
    ExpectSameCell(result.baseline,
                   SerialCell(config, fault::FaultPlan{},
                              fault::FaultKind::kDropSample, 0.0));
  }
  ASSERT_EQ(result.cells.size(), config.kinds.size() * config.rates.size());
  std::size_t i = 0;
  for (const fault::FaultKind kind : config.kinds) {
    for (const double rate : config.rates) {
      SCOPED_TRACE(std::string(fault::FaultKindName(kind)) + " @ " +
                   std::to_string(rate));
      ExpectSameCell(result.cells[i++],
                     SerialCell(config, fault::FaultPlan::Single(kind, rate, 0),
                                kind, rate));
    }
  }
}

RobustnessSweepConfig SmallGrid() {
  RobustnessSweepConfig config;
  config.run = FastConfig(Scheme::kSds);
  config.kinds = {fault::FaultKind::kDropSample,
                  fault::FaultKind::kSamplerDeath};
  config.rates = {0.1};
  config.runs_per_cell = 2;
  return config;
}

TEST(RobustnessSweepTest, ParallelSweepEqualsSerialRuns) {
  // Three cells run concurrently; each must equal the same runs made one by
  // one on this thread.
  ExpectSweepMatchesSerialRuns(SmallGrid());
}

TEST(RobustnessSweepTest, TelemetrySweepRunsSeriallyAndMatches) {
  // A shared telemetry handle forces the serial path (its tracer, metrics and
  // audit log are not thread-safe); the sweep must still complete and match.
  telemetry::Telemetry telemetry;
  RobustnessSweepConfig config = SmallGrid();
  config.runs_per_cell = 1;
  config.run.scenario.machine.telemetry = &telemetry;
  ExpectSweepMatchesSerialRuns(config);
  EXPECT_GT(telemetry.metrics().GetCounter("sim.machine.ticks")->value(), 0u);
}

}  // namespace
}  // namespace sds::eval
