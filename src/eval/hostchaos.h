// Host-chaos protocol (DESIGN.md §17): host crash/degrade faults, VM
// evacuation convergence, and the warm-vs-cold detector handoff win.
//
// One victim runs under SDS detection on host 0 of a small cluster; a
// scheduled bus-locking attacker is co-resident on EVERY host, so the
// contention signature persists wherever the victim lands. Two cell
// families:
//
//   Migration cells ("attacker-induced mitigation" evasion): no host
//   faults; the victim is forcibly migrated every `migrate_every` ticks —
//   the attacker's cheapest evasion is to keep triggering mitigations,
//   because with COLD handoff every migration resets the analyzer windows
//   and the detector never accumulates h_c violations. Warm handoff closes
//   exactly that hole.
//
//   Chaos cells: hosts crash at a swept per-host-tick rate (plus one
//   scheduled crash of the victim's host, so every cell contains at least
//   one evacuation); the evacuation engine moves stranded VMs through the
//   Actuator and the handoff follows the victim.
//
// Each cell runs the SAME seeds warm and cold. The host-fault schedule is
// a pure function of the plan seed and the workload trajectory of the run
// seed, and the handoff only changes detector-internal state — so the two
// sides see bit-identical worlds and the blind-window / missed-alarm
// deltas are attributable to the handoff alone. The sweep's
// `warm_strictly_better` flag (warm below cold on both metrics in every
// cell) is the acceptance criterion bench_hostchaos enforces.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/evacuation.h"
#include "common/types.h"
#include "detect/params.h"
#include "fault/actuation_plan.h"
#include "fault/host_plan.h"
#include "obs/handoff.h"

namespace sds::eval {

struct HostChaosRunConfig {
  std::string app = "kmeans";
  int hosts = 3;
  int vm_capacity = 8;  // per host; must fit co-tenants plus evacuees
  int benign_vms = 1;   // per host
  // Warm detector-state handoff on every victim migration; false = the
  // pre-PR cold start (measured, not assumed — the baseline side of every
  // cell).
  bool warm_handoff = true;
  Tick attack_start = 1000;
  Tick horizon = 10000;  // total ticks
  // Forced periodic victim migration: first at attack_start +
  // migrate_every, then every migrate_every ticks. 0 disables.
  Tick migrate_every = 0;
  fault::HostFaultPlan host_plan;
  fault::ActuationFaultPlan actuation_plan;
  cluster::EvacuationConfig evacuation;
  detect::DetectorParams params;
};

// One victim migration with its handoff verdict and the blind window it
// opened (ticks from the migration until the detector re-reported the
// still-running attack; -1 while open / when censored by the horizon).
struct HandoffEvent {
  Tick tick = 0;
  cluster::VmRef from;
  cluster::VmRef to;
  bool forced = false;  // forced migration cell vs evacuation
  bool warm = false;
  std::string status;  // SnapshotStatusName, or "disabled" when cold
  Tick blind_ticks = -1;
};

struct HostChaosRunResult {
  int migrations = 0;
  obs::HandoffStats handoffs;
  // Sum/max of per-migration blind windows (censored windows count up to
  // the horizon).
  std::uint64_t blind_ticks = 0;
  Tick max_blind_ticks = 0;
  // Ticks after the first migration where the attack was running, the
  // victim's host was serving, and the detector did / did not report it.
  std::uint64_t attacked_serving_ticks = 0;
  std::uint64_t missed_ticks = 0;
  Tick first_alarm_tick = kInvalidTick;

  fault::HostFaultStats host_faults;
  cluster::EvacuationStats evacuation;
  std::vector<cluster::HostTransition> transitions;
  std::vector<cluster::EvacuationRecord> evacuation_records;
  std::vector<HandoffEvent> handoff_events;

  double missed_alarm_rate() const {
    return attacked_serving_ticks == 0
               ? 0.0
               : static_cast<double>(missed_ticks) /
                     static_cast<double>(attacked_serving_ticks);
  }
  double mean_blind_ticks() const {
    return migrations == 0 ? 0.0
                           : static_cast<double>(blind_ticks) /
                                 static_cast<double>(migrations);
  }
};

// One seeded chaos run. Fully deterministic for a fixed (config, seed).
HostChaosRunResult RunHostChaosRun(const HostChaosRunConfig& config,
                                   std::uint64_t seed);

struct HostChaosSweepConfig {
  HostChaosRunConfig run;
  // Evasion family: forced-migration periods (ticks).
  std::vector<Tick> migration_periods = {800, 1600, 3200};
  // Chaos family: per-host-tick crash rates.
  std::vector<double> crash_rates = {0.0003, 0.0006, 0.0012};
  // Every chaos cell also schedules one crash of the victim's host this
  // many ticks after the attack starts (duration scheduled_crash_down), so
  // evacuation + handoff happen at least once regardless of the rate.
  Tick scheduled_crash_after = 1500;
  Tick scheduled_crash_down = 2500;
  int runs_per_cell = 2;
  std::uint64_t base_seed = 9100;
  std::uint64_t fault_seed = 0x405c4a05ull;
};

// Aggregate of one cell's runs for one handoff mode.
struct HostChaosCellSide {
  int runs = 0;
  int migrations = 0;
  int warm_handoffs = 0;
  int cold_handoffs = 0;
  double mean_blind_ticks = 0.0;
  Tick max_blind_ticks = 0;
  double missed_alarm_rate = 0.0;  // pooled over runs
  // Evacuation convergence (chaos cells; zero in migration cells).
  std::uint64_t evac_started = 0;
  std::uint64_t evac_migrated = 0;
  std::uint64_t evac_throttled = 0;
  std::uint64_t evac_abandoned = 0;
  double mean_evacuation_ticks = -1.0;
  std::uint64_t down_ticks = 0;
};

struct HostChaosCell {
  bool chaos = false;        // false: migration/evasion cell
  Tick migrate_every = 0;    // migration cells
  double crash_rate = 0.0;   // chaos cells
  HostChaosCellSide warm;
  HostChaosCellSide cold;
};

struct HostChaosSweepResult {
  std::vector<HostChaosCell> migration_cells;
  std::vector<HostChaosCell> chaos_cells;
  // Acceptance criterion: in EVERY cell the warm side is strictly below
  // the cold side on mean blind-window ticks AND missed-alarm rate.
  bool warm_strictly_better = true;
};

HostChaosSweepResult RunHostChaosSweep(const HostChaosSweepConfig& config);

// Writes the whole sweep as one JSON object (the BENCH_hostchaos schema).
void WriteHostChaosJson(std::ostream& os, const HostChaosSweepConfig& config,
                        const HostChaosSweepResult& result);

// Writes one run's host up/down timeline, evacuations and handoffs as
// JSONL records for trace_inspect --hostchaos.
void WriteHostChaosTrace(std::ostream& os, const HostChaosRunConfig& config,
                         const HostChaosRunResult& result);

}  // namespace sds::eval
