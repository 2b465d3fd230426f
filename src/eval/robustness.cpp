#include "eval/robustness.h"

#include <ostream>

#include "common/check.h"
#include "eval/aggregate.h"

namespace sds::eval {

void RobustnessCounters::Accumulate(const RobustnessCounters& other) {
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
    fault.injected[k] += other.fault.injected[k];
  }
  fault.missing_ticks += other.fault.missing_ticks;
  fault.tampered_samples += other.fault.tampered_samples;
  fault.restart_attempts += other.fault.restart_attempts;
  fault.restarts_denied += other.fault.restarts_denied;
  fault.restarts += other.fault.restarts;

  degrade.delivered += other.degrade.delivered;
  degrade.gap_ticks += other.degrade.gap_ticks;
  degrade.quarantined += other.degrade.quarantined;
  degrade.substituted += other.degrade.substituted;
  degrade.rewarms += other.degrade.rewarms;
  degrade.watchdog_attempts += other.degrade.watchdog_attempts;
  degrade.watchdog_restarts += other.degrade.watchdog_restarts;

  ks_abandoned_collections += other.ks_abandoned_collections;
}

namespace {

// Runs runs_per_cell seeded runs of one grid cell and aggregates them.
RobustnessCell RunCell(const RobustnessSweepConfig& config,
                       const fault::FaultPlan& plan, fault::FaultKind kind,
                       double rate) {
  RobustnessCell cell;
  cell.kind = kind;
  cell.rate = rate;
  double delay_sum = 0.0;
  for (int r = 0; r < config.runs_per_cell; ++r) {
    RobustnessRunConfig robust;
    robust.plan = plan;
    // Vary the fault schedule with the run while keeping it a pure function
    // of (fault_seed, kind, rate, run index).
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

void WriteCellJson(std::ostream& os, const RobustnessCell& cell,
                   const char* kind_name) {
  os << "{\"kind\":\"" << kind_name << "\",\"rate\":" << cell.rate
     << ",\"runs\":" << cell.runs
     << ",\"detected_runs\":" << cell.detected_runs
     << ",\"recall\":" << cell.recall()
     << ",\"specificity\":" << cell.specificity()
     << ",\"mean_delay_ticks\":" << cell.mean_delay_ticks
     << ",\"false_positive_intervals\":" << cell.false_positive_intervals
     << ",\"injected\":" << cell.counters.fault.injected_total()
     << ",\"missing_ticks\":" << cell.counters.fault.missing_ticks
     << ",\"gap_ticks\":" << cell.counters.degrade.gap_ticks
     << ",\"quarantined\":" << cell.counters.degrade.quarantined
     << ",\"substituted\":" << cell.counters.degrade.substituted
     << ",\"rewarms\":" << cell.counters.degrade.rewarms
     << ",\"watchdog_restarts\":" << cell.counters.degrade.watchdog_restarts
     << ",\"ks_abandoned\":" << cell.counters.ks_abandoned_collections << "}";
}

}  // namespace

RobustnessSweepResult RunRobustnessSweep(const RobustnessSweepConfig& config) {
  SDS_CHECK(config.runs_per_cell >= 1, "need at least one run per cell");
  SDS_CHECK(!config.kinds.empty() && !config.rates.empty(),
            "empty sweep grid");
  for (const double rate : config.rates) {
    SDS_CHECK(rate > 0.0 && rate <= 1.0,
              "sweep rates must be probabilities > 0");
  }

  // Cell 0 is the baseline: the full injector + gate machinery in the path,
  // but a zero-rate plan. Bit-transparent by the golden invariant, so this
  // equals the plain RunDetectionRun numbers while exercising the same code
  // path the faulted cells use. Cells 1.. are the kind x rate grid,
  // kind-major.
  const std::size_t rates = config.rates.size();
  std::vector<RobustnessCell> cells = RunCells(
      static_cast<int>(1 + config.kinds.size() * rates),
      config.run.scenario.machine.telemetry, [&](int i) {
        if (i == 0) {
          return RunCell(config, fault::FaultPlan{},
                         fault::FaultKind::kDropSample, 0.0);
        }
        const auto grid = static_cast<std::size_t>(i - 1);
        const fault::FaultKind kind = config.kinds[grid / rates];
        const double rate = config.rates[grid % rates];
        return RunCell(config, fault::FaultPlan::Single(kind, rate, 0), kind,
                       rate);
      });

  RobustnessSweepResult result;
  result.baseline = cells.front();
  result.cells.assign(cells.begin() + 1, cells.end());
  return result;
}

void WriteRobustnessJson(std::ostream& os, const RobustnessSweepConfig& config,
                         const RobustnessSweepResult& result) {
  os << "{\"bench\":\"robustness\",\"app\":\"" << config.run.app
     << "\",\"attack\":\"" << AttackName(config.run.attack)
     << "\",\"scheme\":\"" << SchemeName(config.run.scheme)
     << "\",\"gap_policy\":\""
     << detect::GapPolicyName(config.degrade.gap_policy)
     << "\",\"runs_per_cell\":" << config.runs_per_cell
     << ",\"clean_ticks\":" << config.run.clean_ticks
     << ",\"attack_ticks\":" << config.run.attack_ticks << ",\"baseline\":";
  WriteCellJson(os, result.baseline, "none");
  os << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) os << ",";
    WriteCellJson(os, result.cells[i],
                  fault::FaultKindName(result.cells[i].kind));
  }
  os << "]}";
}

}  // namespace sds::eval
