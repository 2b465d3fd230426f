// SLO rule engine with error-budget burn-rate alerting (DESIGN.md §13).
//
// Rules are declared in a one-line grammar evaluated against each completed
// rollup window:
//
//   rule      := name ':' agg '(' metric ')' op value [clause...]
//   agg       := mean | p50 | p95 | p99 | min | max | count | sum
//   op        := '<' | '<=' | '>' | '>='
//   clause    := 'budget' FLOAT      allowed violating-window fraction
//              | 'window' INT        trailing windows in the burn estimate
//              | 'warn' FLOAT        burn-rate warning threshold
//              | 'page' FLOAT        burn-rate paging threshold
//
// e.g.  "detect-latency: p95(detect.latency_ticks) <= 600 budget 0.05
//        window 12 warn 1 page 2"
//
// Semantics: a window VIOLATES a rule when any series of the rule's metric
// breaches the threshold in that window (worst-case across the fleet). The
// burn rate is the violating fraction of the trailing `window` windows
// divided by the budget — burn 1.0 means the budget is being consumed
// exactly as fast as it accrues; sustained burn > 1 exhausts it. Level
// transitions (ok -> warn -> page and back) are emitted as SloAlert events.
//
// The engine is deterministic: rollup rows arrive in the rollup's canonical
// (window, key) order and every update is pure arithmetic on them.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/rollup.h"

namespace sds::obs {

enum class SloAgg : std::uint8_t {
  kMean,
  kP50,
  kP95,
  kP99,
  kMin,
  kMax,
  kCount,
  kSum,
};

enum class SloOp : std::uint8_t { kLt, kLe, kGt, kGe };

const char* SloAggName(SloAgg agg);
const char* SloOpName(SloOp op);

struct SloRule {
  std::string name;
  std::string metric;
  SloAgg agg = SloAgg::kMean;
  SloOp op = SloOp::kLe;
  double threshold = 0.0;
  // Allowed violating-window fraction (the error budget).
  double budget = 0.01;
  // Trailing windows the burn estimate covers.
  std::int64_t burn_window = 12;
  double warn_burn = 1.0;
  double page_burn = 2.0;
};

// Parses one rule line; returns nullopt and fills *error on bad syntax.
std::optional<SloRule> ParseSloRule(std::string_view text, std::string* error);

enum class SloLevel : std::uint8_t { kOk, kWarn, kPage };

const char* SloLevelName(SloLevel level);

// One level transition of one rule.
struct SloAlert {
  std::int64_t window = 0;
  std::string rule;
  SloLevel level = SloLevel::kOk;
  double burn = 0.0;
  // Worst offending series of the transition window (0/0 when none).
  std::uint32_t host = 0;
  std::uint32_t tenant = 0;
  double observed = 0.0;
};

class SloEngine {
 public:
  // `rollup` supplies the metric-name interning; must outlive the engine.
  SloEngine(std::vector<SloRule> rules, const FleetRollup* rollup);

  // Feeds the rows of ONE completed window (all rows must share `window`).
  // Call with consecutive window indices; windows with no rows still count
  // toward the burn denominator (pass an empty span).
  void OnWindow(std::int64_t window, std::span<const RollupRow> rows);

  const std::vector<SloAlert>& alerts() const { return alerts_; }
  const std::vector<SloRule>& rules() const { return rules_; }

  struct RuleStatus {
    SloLevel level = SloLevel::kOk;
    double burn = 0.0;
    std::uint64_t windows_seen = 0;
    std::uint64_t windows_violating = 0;
  };
  const RuleStatus& status(std::size_t rule_index) const {
    return status_[rule_index];
  }

  // Rules currently at kWarn or worse.
  std::size_t burning_rules() const;

  // One JSONL line per alert (type "slo_alert") and per rule summary
  // (type "slo_status"); appended to the rollup stream for trace_inspect.
  void WriteJsonl(std::ostream& os) const;

 private:
  struct RuleState {
    std::optional<MetricId> metric;  // resolved lazily against the rollup
    std::deque<bool> trailing;       // violation bits, newest last
    std::int64_t trailing_violations = 0;
    RuleStatus status;
  };

  std::vector<SloRule> rules_;
  const FleetRollup* rollup_;
  std::vector<RuleState> state_;
  std::vector<RuleStatus> status_;
  std::vector<SloAlert> alerts_;
};

// Aggregate value of one rollup row under a rule's aggregation.
double SloAggregate(const RollupRow& row, SloAgg agg);

// The default fleet SLO pack: detection latency, false-alarm budget,
// mitigation convergence and sampler health, phrased in the rule grammar.
// These names match the metrics eval::RunFleetObsSweep emits.
std::vector<SloRule> DefaultFleetSloRules();

}  // namespace sds::obs
