#include "eval/actuation.h"

#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace sds::eval {
namespace {

// CI-sized run windows: short but still long enough for the full retry /
// escalate / fallback chain to play out under 100% fault rates.
ActuationRunConfig SmallRun() {
  ActuationRunConfig run;
  run.clean_window = 200;
  run.attack_lead = 150;
  run.settle_cap = 2000;
  run.post_window = 200;
  return run;
}

TEST(ActuationEvalTest, BaselineSettlesAtTheAlarmTick) {
  const ActuationRunResult r = RunActuationRun(SmallRun(), 7100);
  EXPECT_TRUE(r.settled);
  EXPECT_EQ(r.time_to_settled, 0);  // null plan: synchronous inside OnAlarm
  EXPECT_EQ(r.applied, cluster::MitigationPolicy::kMigrateVictim);
  EXPECT_EQ(r.mitigation.retries, 0u);
  EXPECT_EQ(r.actuation.injected_total(), 0u);
  // The bus lock bites and migration relieves it.
  EXPECT_LT(r.rate_attacked, r.rate_clean);
  EXPECT_GT(r.rate_post, r.rate_attacked);
}

TEST(ActuationEvalTest, RunIsDeterministicPerSeed) {
  ActuationRunConfig run = SmallRun();
  run.plan = fault::ActuationFaultPlan::Single(
      fault::ActuationFaultKind::kMigrationAbort, 0.5, 99, 2, 8);
  const ActuationRunResult a = RunActuationRun(run, 7100);
  const ActuationRunResult b = RunActuationRun(run, 7100);
  EXPECT_EQ(a.settled, b.settled);
  EXPECT_EQ(a.time_to_settled, b.time_to_settled);
  EXPECT_EQ(a.mitigation.retries, b.mitigation.retries);
  EXPECT_EQ(a.actuation.injected_total(), b.actuation.injected_total());
  EXPECT_DOUBLE_EQ(a.rate_post, b.rate_post);
}

TEST(ActuationEvalTest, SweepSettlesEverywhereAtModerateRates) {
  // The acceptance bar: at every fault rate <= 50% the victim reaches
  // settled in 100% of seeded scenarios, and faulted cells are no faster
  // than the fault-free baseline.
  ActuationSweepConfig config;
  config.run = SmallRun();
  config.rates = {0.25, 0.5};
  config.runs_per_cell = 1;
  const ActuationSweepResult result = RunActuationSweep(config);

  EXPECT_DOUBLE_EQ(result.baseline.settle_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(result.baseline.mean_time_to_settled, 0.0);
  EXPECT_EQ(result.cells.size(), config.kinds.size() * config.rates.size());
  for (const auto& cell : result.cells) {
    SCOPED_TRACE(fault::ActuationFaultKindName(cell.kind) +
                 std::string(" @ ") + std::to_string(cell.rate));
    EXPECT_DOUBLE_EQ(cell.settle_ratio(), 1.0);
    EXPECT_EQ(cell.failed_runs, 0);
    EXPECT_GE(cell.mean_time_to_settled,
              result.baseline.mean_time_to_settled);
  }
}

TEST(ActuationEvalTest, JsonCarriesTheBenchSchema) {
  ActuationSweepConfig config;
  config.run = SmallRun();
  config.rates = {0.5};
  config.kinds = {fault::ActuationFaultKind::kMigrationAbort};
  config.runs_per_cell = 1;
  const ActuationSweepResult result = RunActuationSweep(config);

  std::ostringstream os;
  WriteActuationJson(os, config, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"actuation\""), std::string::npos);
  EXPECT_NE(json.find("\"baseline\":{"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"migration-abort\""), std::string::npos);
  EXPECT_NE(json.find("\"settle_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean_residual_degradation\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// The cell a sweep should report for (plan, kind, rate), folded here from
// serial RunActuationRun calls with the sweep's documented seeds.
ActuationCell SerialCell(const ActuationSweepConfig& config,
                         const fault::ActuationFaultPlan& plan,
                         fault::ActuationFaultKind kind, double rate) {
  ActuationCell cell;
  cell.kind = kind;
  cell.rate = rate;
  double settle_sum = 0.0;
  double residual_sum = 0.0;
  for (int r = 0; r < config.runs_per_cell; ++r) {
    ActuationRunConfig run = config.run;
    run.plan = plan;
    run.plan.seed =
        config.fault_seed +
        std::uint64_t{0x9e3779b97f4a7c15} * static_cast<std::uint64_t>(r + 1) +
        std::uint64_t{0x85ebca6b} * (static_cast<std::uint64_t>(kind) + 1) +
        std::uint64_t{0xc2b2ae3d} * static_cast<std::uint64_t>(rate * 1000.0);
    const ActuationRunResult res =
        RunActuationRun(run, config.base_seed + static_cast<std::uint64_t>(r));
    ++cell.runs;
    if (res.settled) {
      ++cell.settled_runs;
      settle_sum += static_cast<double>(res.time_to_settled);
      cell.max_time_to_settled =
          std::max(cell.max_time_to_settled, res.time_to_settled);
    }
    if (res.failed) ++cell.failed_runs;
    if (res.mitigation.escalations > 0) ++cell.escalated_runs;
    if (res.applied == cluster::MitigationPolicy::kThrottleFallback) {
      ++cell.throttle_runs;
    }
    residual_sum += res.residual_degradation;
    cell.dispatches += res.mitigation.dispatches;
    cell.retries += res.mitigation.retries;
    cell.timeouts += res.mitigation.timeouts;
    cell.escalations += res.mitigation.escalations;
    cell.injected += res.actuation.injected_total();
    cell.lost += res.actuation.lost;
    cell.cancelled += res.actuation.cancelled;
    cell.conflicts += res.actuation.conflicts;
  }
  if (cell.settled_runs > 0) {
    cell.mean_time_to_settled = settle_sum / cell.settled_runs;
  }
  cell.mean_residual_degradation = residual_sum / cell.runs;
  return cell;
}

void ExpectSameCell(const ActuationCell& a, const ActuationCell& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.settled_runs, b.settled_runs);
  EXPECT_EQ(a.failed_runs, b.failed_runs);
  EXPECT_EQ(a.escalated_runs, b.escalated_runs);
  EXPECT_EQ(a.throttle_runs, b.throttle_runs);
  EXPECT_EQ(a.mean_time_to_settled, b.mean_time_to_settled);
  EXPECT_EQ(a.max_time_to_settled, b.max_time_to_settled);
  EXPECT_EQ(a.mean_residual_degradation, b.mean_residual_degradation);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.conflicts, b.conflicts);
}

TEST(ActuationEvalTest, ParallelSweepEqualsSerialRuns) {
  // Three cells run concurrently; each must equal the same runs made one by
  // one on this thread.
  ActuationSweepConfig config;
  config.run = SmallRun();
  config.kinds = {fault::ActuationFaultKind::kMigrationAbort};
  config.rates = {0.25, 0.5};
  config.runs_per_cell = 2;
  const ActuationSweepResult result = RunActuationSweep(config);
  {
    SCOPED_TRACE("baseline");
    ExpectSameCell(result.baseline,
                   SerialCell(config, fault::ActuationFaultPlan{},
                              fault::ActuationFaultKind::kCommandLost, 0.0));
  }
  ASSERT_EQ(result.cells.size(), 2u);
  for (std::size_t i = 0; i < config.rates.size(); ++i) {
    const double rate = config.rates[i];
    SCOPED_TRACE(rate);
    ExpectSameCell(
        result.cells[i],
        SerialCell(config,
                   fault::ActuationFaultPlan::Single(
                       config.kinds[0], rate, 0, config.faulted_latency_min,
                       config.faulted_latency_max),
                   config.kinds[0], rate));
  }
}

}  // namespace
}  // namespace sds::eval
