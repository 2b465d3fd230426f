#include "eval/attribution_sweep.h"

#include <cstring>
#include <ostream>

#include "common/check.h"
#include "detect/kstest_detector.h"
#include "eval/aggregate.h"

namespace sds::eval {
namespace {

// FNV-1a, doubles hashed by bit pattern (any numeric drift changes it).
class Fingerprinter {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

void ScoreCell(AttributionCell& cell, const detect::ForensicReport& report) {
  cell.report = report;
  cell.attributed = report.attributed;
  cell.prime_suspect = report.prime_suspect;
  cell.prime_score =
      report.suspects.empty() ? 0.0 : report.suspects.front().score;
  cell.evidence_lead_ticks = report.evidence_lead_ticks;
  cell.kstest_culprit = report.kstest_culprit;
  cell.kstest_agrees = report.kstest_agrees;
  if (cell.true_attacker != 0) {
    for (std::size_t i = 0; i < report.suspects.size(); ++i) {
      if (report.suspects[i].vm == cell.true_attacker) {
        cell.rank_of_true = static_cast<int>(i) + 1;
        break;
      }
    }
  }
}

ScenarioConfig CellScenario(const AttributionSweepConfig& config,
                            const AttributionCell& cell, std::uint64_t seed) {
  ScenarioConfig sc;
  sc.app = cell.app;
  sc.attack = cell.attack;
  sc.attack_start = config.warmup_ticks;
  sc.attack2 = cell.attack2;
  sc.attack2_start = config.warmup_ticks;
  sc.machine.attribution = true;
  sc.seed = seed;
  return sc;
}

// Forced-alarm cell: run warmup + attack window, then alarm at the end. The
// sweep scores WHO the evidence names, not when a detector would fire.
void RunForcedAlarmCell(const AttributionSweepConfig& config,
                        AttributionCell& cell, std::uint64_t seed) {
  Scenario s = BuildScenario(CellScenario(config, cell, seed));
  cell.true_attacker = s.attacker;
  cell.true_attacker2 = s.attacker2;
  detect::ForensicsEngine engine(*s.hypervisor, s.victim, config.forensics);
  for (Tick t = 0; t < config.warmup_ticks + config.attack_ticks; ++t) {
    s.hypervisor->RunTick();
    engine.OnTick();
  }
  ScoreCell(cell, engine.OnAlarm(s.hypervisor->now()));
}

// KStest cell: the full baseline (reference throttling, monitored KS tests,
// identification sweep) runs against the live scenario; the forensic report
// is built at the baseline's own alarm with the baseline's culprit, so the
// cell scores agreement between perturbation- and ledger-based attribution.
void RunKstestCell(const AttributionSweepConfig& config, AttributionCell& cell,
                   std::uint64_t seed) {
  ScenarioConfig sc = CellScenario(config, cell, seed);
  // Right after the immediate reference collection (which throttles
  // everything except the target, so it stays clean regardless): the first
  // monitored windows then see the attack and the alarm is attack-driven
  // rather than a workload-phase false positive.
  sc.attack_start = 200;
  Scenario s = BuildScenario(sc);
  cell.true_attacker = s.attacker;
  detect::KsTestParams kp;
  kp.initial_offset = kp.l_r - 1;  // first reference collection immediately
  detect::KsTestDetector detector(*s.hypervisor, s.victim, kp);
  detect::ForensicsEngine engine(*s.hypervisor, s.victim, config.forensics);
  for (Tick t = 0; t < config.kstest_run_cap; ++t) {
    s.hypervisor->RunTick();
    detector.OnTick();
    engine.OnTick();
    if (detector.alarm_events() > 0) break;
  }
  ScoreCell(cell, engine.OnAlarm(s.hypervisor->now(),
                                 detector.identified_attacker()));
}

}  // namespace

AttributionSweepResult RunAttributionSweep(const AttributionSweepConfig& config,
                                           std::ostream* log) {
  SDS_CHECK(!config.apps.empty(), "attribution sweep needs applications");
  AttributionSweepResult result;

  std::vector<AttributionCell> grid;
  for (const std::string& app : config.apps) {
    AttributionCell quiet;
    quiet.app = app;
    grid.push_back(quiet);
    for (AttackKind attack :
         {AttackKind::kBusLock, AttackKind::kLlcCleansing}) {
      AttributionCell cell;
      cell.app = app;
      cell.attack = attack;
      grid.push_back(cell);
    }
  }
  AttributionCell colluding;
  colluding.app = config.apps.front();
  colluding.attack = AttackKind::kBusLock;
  colluding.attack2 = AttackKind::kLlcCleansing;
  grid.push_back(colluding);

  // Cell i runs with seed base_seed + i; the KStest cell, when enabled, is
  // the last one.
  const int forced_cells = static_cast<int>(grid.size());
  result.cells = RunCells(
      forced_cells + (config.kstest_cell ? 1 : 0), nullptr, [&](int i) {
        const std::uint64_t seed =
            config.base_seed + static_cast<std::uint64_t>(i);
        if (i < forced_cells) {
          AttributionCell cell = grid[static_cast<std::size_t>(i)];
          RunForcedAlarmCell(config, cell, seed);
          return cell;
        }
        AttributionCell cell;
        cell.app = "bayes";
        cell.attack = AttackKind::kBusLock;
        RunKstestCell(config, cell, seed);
        return cell;
      });

  if (log != nullptr) {
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      const AttributionCell& cell = result.cells[i];
      *log << "  " << cell.app << " / " << AttackName(cell.attack);
      if (i < grid.size()) {
        *log << (cell.attack2 != AttackKind::kNone ? " + colluder" : "")
             << ": prime=" << cell.prime_suspect
             << " rank_of_true=" << cell.rank_of_true << "\n";
      } else {
        *log << " [kstest]: prime=" << cell.prime_suspect
             << " kstest_culprit=" << cell.kstest_culprit
             << (cell.kstest_agrees ? " (agrees)" : " (disagrees)") << "\n";
      }
    }
  }

  int single_cells = 0;
  int rank1 = 0;
  int ranked_cells = 0;
  int rank_sum = 0;
  Fingerprinter fp;
  for (const AttributionCell& cell : result.cells) {
    const bool attacked = cell.true_attacker != 0;
    const bool single = attacked && cell.true_attacker2 == 0;
    if (single) {
      ++single_cells;
      if (cell.rank_of_true == 1) ++rank1;
    }
    if (attacked && cell.rank_of_true > 0) {
      ++ranked_cells;
      rank_sum += cell.rank_of_true;
    }
    if (attacked) {
      const bool correct = cell.attributed &&
                           (cell.prime_suspect == cell.true_attacker ||
                            cell.prime_suspect == cell.true_attacker2);
      if (correct) {
        ++result.true_positives;
      } else if (cell.attributed) {
        ++result.false_positives;
      } else {
        ++result.false_negatives;
      }
    } else if (cell.attributed) {
      ++result.false_positives;
    }
    fp.Str(cell.app);
    fp.U64(static_cast<std::uint64_t>(cell.attack));
    fp.U64(static_cast<std::uint64_t>(cell.attack2));
    fp.U64(cell.true_attacker);
    fp.U64(cell.true_attacker2);
    fp.U64(cell.attributed ? 1 : 0);
    fp.U64(cell.prime_suspect);
    fp.F64(cell.prime_score);
    fp.U64(static_cast<std::uint64_t>(cell.rank_of_true));
    fp.U64(static_cast<std::uint64_t>(cell.evidence_lead_ticks));
    fp.U64(cell.kstest_culprit);
    fp.U64(cell.kstest_agrees ? 1 : 0);
  }
  result.rank1_fraction =
      single_cells > 0 ? static_cast<double>(rank1) / single_cells : 0.0;
  const int named = result.true_positives + result.false_positives;
  result.precision =
      named > 0 ? static_cast<double>(result.true_positives) / named : 1.0;
  const int attacked_total = result.true_positives + result.false_negatives;
  result.recall = attacked_total > 0
                      ? static_cast<double>(result.true_positives) /
                            attacked_total
                      : 1.0;
  result.mean_rank_of_true =
      ranked_cells > 0 ? static_cast<double>(rank_sum) / ranked_cells : 0.0;
  result.fingerprint = fp.hash();
  return result;
}

void WriteAttributionJson(std::ostream& os,
                          const AttributionSweepConfig& config,
                          const AttributionSweepResult& result) {
  os << "{\"bench\":\"attrib\",\"warmup_ticks\":" << config.warmup_ticks
     << ",\"attack_ticks\":" << config.attack_ticks
     << ",\"base_seed\":" << config.base_seed
     << ",\"min_score\":" << config.forensics.min_score
     << ",\"rank1_fraction\":" << result.rank1_fraction
     << ",\"precision\":" << result.precision
     << ",\"recall\":" << result.recall
     << ",\"mean_rank_of_true\":" << result.mean_rank_of_true
     << ",\"true_positives\":" << result.true_positives
     << ",\"false_positives\":" << result.false_positives
     << ",\"false_negatives\":" << result.false_negatives
     << ",\"fingerprint\":\"" << result.fingerprint << "\",\"cells\":[";
  bool first = true;
  for (const AttributionCell& cell : result.cells) {
    if (!first) os << ',';
    first = false;
    os << "{\"app\":\"" << cell.app << "\",\"attack\":\""
       << AttackName(cell.attack) << "\",\"attack2\":\""
       << AttackName(cell.attack2) << "\",\"true_attacker\":"
       << cell.true_attacker << ",\"attributed\":"
       << (cell.attributed ? "true" : "false")
       << ",\"prime_suspect\":" << cell.prime_suspect
       << ",\"prime_score\":" << cell.prime_score
       << ",\"rank_of_true\":" << cell.rank_of_true
       << ",\"evidence_lead_ticks\":" << cell.evidence_lead_ticks
       << ",\"kstest_culprit\":" << cell.kstest_culprit
       << ",\"kstest_agrees\":" << (cell.kstest_agrees ? "true" : "false")
       << '}';
  }
  os << "]}";
}

}  // namespace sds::eval
