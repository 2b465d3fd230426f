// Host-chaos protocol harness (src/eval/hostchaos.h): runs are
// deterministic, forced migrations carry handoffs, scheduled crashes drive
// evacuation, and the sweep's warm side wins every cell.
#include "eval/hostchaos.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "fault/host_plan.h"

namespace sds::eval {
namespace {

// Fast-deciding detector so 3000-tick runs contain several alarm windows.
detect::DetectorParams FastParams() {
  detect::DetectorParams params;
  params.window = 100;
  params.step = 25;
  params.h_c = 8;
  return params;
}

HostChaosRunConfig FastRun() {
  HostChaosRunConfig config;
  config.attack_start = 500;
  config.horizon = 3000;
  config.params = FastParams();
  return config;
}

TEST(HostChaosRunTest, QuietRunAlarmsAndNeverMigrates) {
  const HostChaosRunResult r = RunHostChaosRun(FastRun(), /*seed=*/77);
  EXPECT_EQ(r.migrations, 0);
  EXPECT_EQ(r.handoffs.attempts, 0u);
  EXPECT_EQ(r.evacuation.started, 0u);
  EXPECT_TRUE(r.transitions.empty());
  EXPECT_TRUE(r.handoff_events.empty());
  EXPECT_NE(r.first_alarm_tick, kInvalidTick)
      << "the co-resident attacker must be detected without any chaos";
  // Blind-window / missed-tick accounting only starts at the first
  // migration; an unmigrated run has nothing to charge.
  EXPECT_EQ(r.attacked_serving_ticks, 0u);
  EXPECT_EQ(r.missed_ticks, 0u);
  EXPECT_EQ(r.mean_blind_ticks(), 0.0);
}

TEST(HostChaosRunTest, RunsAreDeterministic) {
  HostChaosRunConfig config = FastRun();
  config.migrate_every = 400;
  config.host_plan =
      fault::HostFaultPlan::Single(fault::HostFaultKind::kCrash, 0.0005, 13);
  const HostChaosRunResult a = RunHostChaosRun(config, /*seed=*/9);
  const HostChaosRunResult b = RunHostChaosRun(config, /*seed=*/9);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.blind_ticks, b.blind_ticks);
  EXPECT_EQ(a.missed_ticks, b.missed_ticks);
  EXPECT_EQ(a.attacked_serving_ticks, b.attacked_serving_ticks);
  EXPECT_EQ(a.first_alarm_tick, b.first_alarm_tick);
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].tick, b.transitions[i].tick);
    EXPECT_EQ(a.transitions[i].host, b.transitions[i].host);
  }
  ASSERT_EQ(a.handoff_events.size(), b.handoff_events.size());
  for (std::size_t i = 0; i < a.handoff_events.size(); ++i) {
    EXPECT_EQ(a.handoff_events[i].tick, b.handoff_events[i].tick);
    EXPECT_EQ(a.handoff_events[i].blind_ticks, b.handoff_events[i].blind_ticks);
  }
}

TEST(HostChaosRunTest, ForcedMigrationsCarryWarmHandoffs) {
  HostChaosRunConfig config = FastRun();
  config.migrate_every = 400;
  const HostChaosRunResult r = RunHostChaosRun(config, /*seed=*/5);
  // First forced migration at attack_start + 400 = 900, then every 400
  // ticks to the 3000-tick horizon.
  EXPECT_GE(r.migrations, 4);
  EXPECT_EQ(r.handoffs.attempts, static_cast<std::uint64_t>(r.migrations));
  EXPECT_EQ(r.handoffs.warm, r.handoffs.attempts)
      << "same profile + params on every host: all handoffs must be warm";
  ASSERT_EQ(r.handoff_events.size(), static_cast<std::size_t>(r.migrations));
  for (const HandoffEvent& e : r.handoff_events) {
    EXPECT_TRUE(e.forced);
    EXPECT_TRUE(e.warm);
    EXPECT_NE(e.status, "disabled");
    EXPECT_NE(e.from.host, e.to.host);
  }
}

TEST(HostChaosRunTest, ColdModeRecordsDisabledHandoffs) {
  HostChaosRunConfig config = FastRun();
  config.migrate_every = 400;
  config.warm_handoff = false;
  const HostChaosRunResult r = RunHostChaosRun(config, /*seed=*/5);
  EXPECT_GE(r.migrations, 4);
  EXPECT_EQ(r.handoffs.warm, 0u);
  EXPECT_EQ(r.handoffs.cold_other, r.handoffs.attempts);
  for (const HandoffEvent& e : r.handoff_events) {
    EXPECT_FALSE(e.warm);
    EXPECT_EQ(e.status, "disabled");
  }
}

TEST(HostChaosRunTest, ScheduledCrashEvacuatesVictimWithHandoff) {
  HostChaosRunConfig config = FastRun();
  fault::ScheduledHostFault crash;
  crash.tick = 900;  // victim's host, while the attack is running
  crash.host = 0;
  crash.kind = fault::HostFaultKind::kCrash;
  crash.duration = 600;
  config.host_plan.scheduled.push_back(crash);
  const HostChaosRunResult r = RunHostChaosRun(config, /*seed=*/6);

  EXPECT_EQ(r.host_faults.crashes, 1u);
  EXPECT_FALSE(r.transitions.empty());
  // Host 0 carried victim + attacker + benign; all must be re-placed.
  EXPECT_EQ(r.evacuation.started, 3u);
  EXPECT_EQ(r.evacuation.migrated, 3u);
  EXPECT_EQ(r.evacuation.throttled_in_place, 0u);
  // The victim's evacuation carried exactly one (warm, unforced) handoff.
  ASSERT_EQ(r.migrations, 1);
  ASSERT_EQ(r.handoff_events.size(), 1u);
  EXPECT_FALSE(r.handoff_events[0].forced);
  EXPECT_TRUE(r.handoff_events[0].warm);
  EXPECT_NE(r.first_alarm_tick, kInvalidTick)
      << "detection must survive the evacuation";
}

TEST(HostChaosSweepTest, SweepStructureAndWarmWin) {
  HostChaosSweepConfig sweep;
  sweep.run = FastRun();
  sweep.migration_periods = {400};
  sweep.crash_rates = {0.001};
  sweep.scheduled_crash_after = 400;
  sweep.scheduled_crash_down = 600;
  sweep.runs_per_cell = 1;
  const HostChaosSweepResult result = RunHostChaosSweep(sweep);

  ASSERT_EQ(result.migration_cells.size(), 1u);
  ASSERT_EQ(result.chaos_cells.size(), 1u);
  const HostChaosCell& evasion = result.migration_cells[0];
  EXPECT_FALSE(evasion.chaos);
  EXPECT_EQ(evasion.migrate_every, 400);
  EXPECT_EQ(evasion.warm.runs, 1);
  EXPECT_EQ(evasion.cold.runs, 1);
  EXPECT_GT(evasion.cold.migrations, 0);
  // The acceptance criterion, at cell granularity: warm strictly below cold
  // on both the blind window and the missed-alarm rate.
  EXPECT_LT(evasion.warm.mean_blind_ticks, evasion.cold.mean_blind_ticks);
  EXPECT_LT(evasion.warm.missed_alarm_rate, evasion.cold.missed_alarm_rate);

  const HostChaosCell& chaos = result.chaos_cells[0];
  EXPECT_TRUE(chaos.chaos);
  EXPECT_EQ(chaos.crash_rate, 0.001);
  EXPECT_GT(chaos.warm.evac_migrated, 0u);
  EXPECT_GT(chaos.warm.down_ticks, 0u);
  EXPECT_LT(chaos.warm.mean_blind_ticks, chaos.cold.mean_blind_ticks);

  EXPECT_TRUE(result.warm_strictly_better);
}

// One side of the cell a sweep should report for `cell_run` (the sweep's
// tag-th cell), folded here from serial RunHostChaosRun calls with the
// sweep's documented seeds.
HostChaosCellSide SerialSide(const HostChaosSweepConfig& config,
                             const HostChaosRunConfig& cell_run,
                             std::uint64_t tag, bool warm) {
  HostChaosCellSide side;
  std::uint64_t blind = 0;
  std::uint64_t migrations = 0;
  std::uint64_t missed = 0;
  std::uint64_t attacked = 0;
  std::uint64_t evac_ticks = 0;
  for (int r = 0; r < config.runs_per_cell; ++r) {
    HostChaosRunConfig run = cell_run;
    run.warm_handoff = warm;
    run.host_plan.seed =
        config.fault_seed +
        std::uint64_t{0x9e3779b97f4a7c15} * static_cast<std::uint64_t>(r + 1) +
        std::uint64_t{0x85ebca6b} * (tag + 1);
    const HostChaosRunResult res =
        RunHostChaosRun(run, config.base_seed + static_cast<std::uint64_t>(r));
    ++side.runs;
    side.migrations += res.migrations;
    side.warm_handoffs += static_cast<int>(res.handoffs.warm);
    side.cold_handoffs +=
        static_cast<int>(res.handoffs.attempts - res.handoffs.warm);
    side.max_blind_ticks = std::max(side.max_blind_ticks, res.max_blind_ticks);
    blind += res.blind_ticks;
    migrations += static_cast<std::uint64_t>(res.migrations);
    missed += res.missed_ticks;
    attacked += res.attacked_serving_ticks;
    side.evac_started += res.evacuation.started;
    side.evac_migrated += res.evacuation.migrated;
    side.evac_throttled += res.evacuation.throttled_in_place;
    side.evac_abandoned += res.evacuation.abandoned;
    side.down_ticks += res.host_faults.down_ticks;
    evac_ticks += res.evacuation.evacuation_ticks;
  }
  if (migrations > 0) {
    side.mean_blind_ticks =
        static_cast<double>(blind) / static_cast<double>(migrations);
  }
  if (attacked > 0) {
    side.missed_alarm_rate =
        static_cast<double>(missed) / static_cast<double>(attacked);
  }
  if (side.evac_migrated > 0) {
    side.mean_evacuation_ticks = static_cast<double>(evac_ticks) /
                                 static_cast<double>(side.evac_migrated);
  }
  return side;
}

void ExpectSameSide(const HostChaosCellSide& a, const HostChaosCellSide& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.warm_handoffs, b.warm_handoffs);
  EXPECT_EQ(a.cold_handoffs, b.cold_handoffs);
  EXPECT_EQ(a.mean_blind_ticks, b.mean_blind_ticks);
  EXPECT_EQ(a.max_blind_ticks, b.max_blind_ticks);
  EXPECT_EQ(a.missed_alarm_rate, b.missed_alarm_rate);
  EXPECT_EQ(a.evac_started, b.evac_started);
  EXPECT_EQ(a.evac_migrated, b.evac_migrated);
  EXPECT_EQ(a.evac_throttled, b.evac_throttled);
  EXPECT_EQ(a.evac_abandoned, b.evac_abandoned);
  EXPECT_EQ(a.mean_evacuation_ticks, b.mean_evacuation_ticks);
  EXPECT_EQ(a.down_ticks, b.down_ticks);
}

TEST(HostChaosSweepTest, ParallelSweepEqualsSerialRuns) {
  // Two cells (one per family) run concurrently, each holding its warm and
  // cold side; both must equal the same runs made one by one on this thread.
  HostChaosSweepConfig sweep;
  sweep.run = FastRun();
  sweep.migration_periods = {400};
  sweep.crash_rates = {0.001};
  sweep.scheduled_crash_after = 400;
  sweep.scheduled_crash_down = 600;
  sweep.runs_per_cell = 1;
  const HostChaosSweepResult result = RunHostChaosSweep(sweep);
  ASSERT_EQ(result.migration_cells.size(), 1u);
  ASSERT_EQ(result.chaos_cells.size(), 1u);

  HostChaosRunConfig evasion = sweep.run;
  evasion.migrate_every = 400;
  HostChaosRunConfig chaos = sweep.run;
  chaos.host_plan.set_rate(fault::HostFaultKind::kCrash, 0.001);
  fault::ScheduledHostFault crash;
  crash.tick = sweep.run.attack_start + sweep.scheduled_crash_after;
  crash.host = 0;
  crash.kind = fault::HostFaultKind::kCrash;
  crash.duration = sweep.scheduled_crash_down;
  chaos.host_plan.scheduled.push_back(crash);

  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    const auto side = [warm](const HostChaosCell& cell) {
      return warm ? cell.warm : cell.cold;
    };
    ExpectSameSide(side(result.migration_cells[0]),
                   SerialSide(sweep, evasion, 1, warm));
    ExpectSameSide(side(result.chaos_cells[0]),
                   SerialSide(sweep, chaos, 2, warm));
  }
}

}  // namespace
}  // namespace sds::eval
