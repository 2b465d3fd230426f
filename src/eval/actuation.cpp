#include "eval/actuation.h"

#include <algorithm>
#include <memory>
#include <ostream>

#include "attacks/bus_lock_attacker.h"
#include "attacks/scheduled_workload.h"
#include "common/check.h"
#include "eval/aggregate.h"
#include "workloads/catalog.h"

namespace sds::eval {

ActuationRunResult RunActuationRun(const ActuationRunConfig& config,
                                   std::uint64_t seed) {
  SDS_CHECK(config.clean_window > 0 && config.attack_lead > 0 &&
                config.post_window > 0,
            "measurement windows must be positive");
  cluster::Cluster cl(2, cluster::HostConfig{}, seed);

  const Tick attack_start = config.warmup_ticks + config.clean_window;
  const cluster::VmRef victim = cl.Deploy(
      0, "victim", [&config] { return workloads::MakeApp(config.app); });
  const cluster::VmRef attacker =
      cl.Deploy(0, "attacker", [attack_start] {
        return std::make_unique<attacks::ScheduledWorkload>(
            std::make_unique<attacks::BusLockAttacker>(
                attacks::BusLockConfig{}),
            attack_start, -1);
      });
  for (int i = 0; i < config.benign_vms; ++i) {
    cl.Deploy(0, "benign", [] { return workloads::MakeBenignUtility(); });
  }

  cluster::Actuator actuator(cl, config.plan);
  cluster::MitigationEngine engine(cl, victim, config.mitigation, &actuator);

  const auto step = [&] {
    cl.RunTick();
    engine.OnTick();
  };
  std::uint64_t mark = 0;
  const auto window_rate = [&](const cluster::VmRef& placement, Tick ticks) {
    const std::uint64_t now = cl.counters(placement).llc_accesses;
    const double rate =
        static_cast<double>(now - mark) / static_cast<double>(ticks);
    mark = now;
    return rate;
  };

  ActuationRunResult result;

  for (Tick t = 0; t < config.warmup_ticks; ++t) step();
  mark = cl.counters(victim).llc_accesses;
  for (Tick t = 0; t < config.clean_window; ++t) step();
  result.rate_clean = window_rate(victim, config.clean_window);

  for (Tick t = 0; t < config.attack_lead; ++t) step();
  result.rate_attacked = window_rate(victim, config.attack_lead);

  result.alarm_tick = cl.now();
  engine.OnAlarm(config.attribute ? attacker.id : 0);
  Tick waited = 0;
  while (engine.state() != cluster::MitigationState::kSettled &&
         engine.state() != cluster::MitigationState::kFailed &&
         waited < config.settle_cap) {
    step();
    ++waited;
  }

  result.final_state = engine.state();
  result.settled = engine.state() == cluster::MitigationState::kSettled;
  result.failed = engine.state() == cluster::MitigationState::kFailed;
  result.applied = engine.applied_policy();
  if (result.settled) {
    result.time_to_settled = engine.settled_tick() - result.alarm_tick;
  }

  const cluster::VmRef placement = engine.victim();
  mark = cl.counters(placement).llc_accesses;
  for (Tick t = 0; t < config.post_window; ++t) step();
  result.rate_post = window_rate(placement, config.post_window);
  if (result.rate_clean > 0.0) {
    result.residual_degradation =
        1.0 - std::min(1.0, result.rate_post / result.rate_clean);
  }

  result.mitigation = engine.stats();
  result.actuation = actuator.stats();
  return result;
}

namespace {

// Runs runs_per_cell seeded runs of one grid cell and aggregates them.
ActuationCell RunCell(const ActuationSweepConfig& config,
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
    // Vary the fault schedule with the run AND the grid cell while keeping
    // it a pure function of (fault_seed, kind, rate, run index). Cells fire
    // few commands each, so if only the run index entered the seed every
    // cell would share one fault schedule and a single lucky draw would
    // blank the whole grid.
    run.plan.seed =
        config.fault_seed +
        std::uint64_t{0x9e3779b97f4a7c15} * static_cast<std::uint64_t>(r + 1) +
        std::uint64_t{0x85ebca6b} *
            (static_cast<std::uint64_t>(kind) + 1) +
        std::uint64_t{0xc2b2ae3d} * static_cast<std::uint64_t>(rate * 1000.0);
    const ActuationRunResult res = RunActuationRun(
        run, config.base_seed + static_cast<std::uint64_t>(r));
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

void WriteCellJson(std::ostream& os, const ActuationCell& cell,
                   const char* kind_name) {
  os << "{\"kind\":\"" << kind_name << "\",\"rate\":" << cell.rate
     << ",\"runs\":" << cell.runs << ",\"settled_runs\":" << cell.settled_runs
     << ",\"failed_runs\":" << cell.failed_runs
     << ",\"settle_ratio\":" << cell.settle_ratio()
     << ",\"mean_time_to_settled\":" << cell.mean_time_to_settled
     << ",\"max_time_to_settled\":" << cell.max_time_to_settled
     << ",\"escalated_runs\":" << cell.escalated_runs
     << ",\"throttle_runs\":" << cell.throttle_runs
     << ",\"mean_residual_degradation\":" << cell.mean_residual_degradation
     << ",\"dispatches\":" << cell.dispatches
     << ",\"retries\":" << cell.retries << ",\"timeouts\":" << cell.timeouts
     << ",\"escalations\":" << cell.escalations
     << ",\"injected\":" << cell.injected << ",\"lost\":" << cell.lost
     << ",\"cancelled\":" << cell.cancelled
     << ",\"conflicts\":" << cell.conflicts << "}";
}

}  // namespace

ActuationSweepResult RunActuationSweep(const ActuationSweepConfig& config) {
  SDS_CHECK(config.runs_per_cell >= 1, "need at least one run per cell");
  SDS_CHECK(!config.kinds.empty() && !config.rates.empty(),
            "empty sweep grid");
  for (const double rate : config.rates) {
    SDS_CHECK(rate > 0.0 && rate <= 1.0,
              "sweep rates must be probabilities > 0");
  }

  // Cell 0 is the baseline: the full engine + actuator machinery in the
  // path, but an inert plan — synchronous, infallible, settles at the alarm
  // tick. Equals the one-shot engine's behavior by the actuation golden
  // invariant. Cells 1.. are the kind x rate grid, kind-major.
  const std::size_t rates = config.rates.size();
  std::vector<ActuationCell> cells = RunCells(
      static_cast<int>(1 + config.kinds.size() * rates), nullptr, [&](int i) {
        if (i == 0) {
          return RunCell(config, fault::ActuationFaultPlan{},
                         fault::ActuationFaultKind::kCommandLost, 0.0);
        }
        const auto grid = static_cast<std::size_t>(i - 1);
        const fault::ActuationFaultKind kind = config.kinds[grid / rates];
        const double rate = config.rates[grid % rates];
        return RunCell(config,
                       fault::ActuationFaultPlan::Single(
                           kind, rate, 0, config.faulted_latency_min,
                           config.faulted_latency_max),
                       kind, rate);
      });

  ActuationSweepResult result;
  result.baseline = cells.front();
  result.cells.assign(cells.begin() + 1, cells.end());
  return result;
}

void WriteActuationJson(std::ostream& os, const ActuationSweepConfig& config,
                        const ActuationSweepResult& result) {
  os << "{\"bench\":\"actuation\",\"app\":\"" << config.run.app
     << "\",\"policy\":\""
     << cluster::MitigationPolicyName(config.run.mitigation.policy)
     << "\",\"attributed\":" << (config.run.attribute ? "true" : "false")
     << ",\"runs_per_cell\":" << config.runs_per_cell
     << ",\"command_timeout\":" << config.run.mitigation.command_timeout
     << ",\"max_attempts\":" << config.run.mitigation.max_attempts
     << ",\"verify_window\":" << config.run.mitigation.verify_window
     << ",\"latency\":[" << config.faulted_latency_min << ","
     << config.faulted_latency_max << "],\"baseline\":";
  WriteCellJson(os, result.baseline, "none");
  os << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) os << ",";
    WriteCellJson(os, result.cells[i],
                  fault::ActuationFaultKindName(result.cells[i].kind));
  }
  os << "]}";
}

}  // namespace sds::eval
