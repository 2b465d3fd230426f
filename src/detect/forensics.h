// Incident forensics engine: from alarm to ranked suspects.
//
// The paper's detectors (and the KStest baseline's throttling sweep) say
// THAT the monitored VM is under attack and, at best, guess one culprit by
// perturbation. The forensics engine answers the same question from direct
// hardware evidence: it keeps a sliding window of AttributionSampler spans
// (who evicted the target's lines, who imposed bus stall delay on it, who
// occupied the bus) and, on every detector alarm, collapses the window into
// a deterministic ForensicReport — per-VM evidence scores, a prime suspect
// (or an explicit "unattributed"), the tick the evidence trail started, and
// agreement/disagreement with the KStest-identified culprit. The report
// aligns with the incident timeline decomposition (telemetry/timeline.h):
// first_evidence_tick bounds first_contention from below, and
// evidence_lead_ticks is how long the ledger had the culprit before the
// statistics crossed the boundary.
//
// Scoring is share-based and integer-fed: per resource the window sums are
// exact ledger deltas, each candidate's share is its fraction of the
// non-target total, and the score is the weight-normalized blend over the
// resources that produced any evidence at all. Equal scores break toward the
// smaller VM id, so reports are bit-stable across runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "pcm/attribution_sampler.h"
#include "vm/hypervisor.h"

namespace sds::detect {

struct ForensicsConfig {
  // Attribution spans retained in the evidence window.
  std::size_t window_spans = 512;
  // Per-resource blend weights. Evictions and imposed stall delay are direct
  // harm to the target; raw occupancy is circumstantial (a loud neighbor is
  // not necessarily the attacker) and weighs half by default.
  double eviction_weight = 1.0;
  double bus_delay_weight = 1.0;
  double occupancy_weight = 0.5;
  // A prime suspect must score at least this, else the report stays
  // unattributed (prime_suspect 0) and mitigation falls through to its
  // victim-side ladder. 0.35 sits between the skew benign co-tenants reach
  // on a quiet machine (<~0.31 across seeds) and the share a real attacker
  // holds even when splitting evidence with a colluder (>~0.45).
  double min_score = 0.35;
};

// Window-summed evidence one candidate VM accumulated against the target.
struct SuspectEvidence {
  OwnerId vm = 0;
  // Weight-normalized blend of the shares below, in [0, 1].
  double score = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t bus_delay = 0;
  std::uint64_t occupancy = 0;
  double eviction_share = 0.0;
  double bus_delay_share = 0.0;
  double occupancy_share = 0.0;
};

struct ForensicReport {
  Tick alarm_tick = 0;
  OwnerId target = 0;
  // Evidence window the scores were computed over (inclusive ticks).
  Tick window_start = 0;
  Tick window_end = 0;
  // Candidates with any nonzero evidence, score descending (ties toward the
  // smaller VM id). The target itself is never a candidate; owner 0 is the
  // hypervisor/unattributed sentinel and never a candidate either.
  std::vector<SuspectEvidence> suspects;
  // prime_suspect is suspects[0].vm when its score clears min_score;
  // otherwise 0 and attributed is false.
  bool attributed = false;
  OwnerId prime_suspect = 0;
  // First tick in the window where the prime suspect inflicted direct harm
  // (an eviction or a stall charge) on the target; kInvalidTick when
  // unattributed. evidence_lead_ticks = alarm_tick - first_evidence_tick.
  Tick first_evidence_tick = kInvalidTick;
  Tick evidence_lead_ticks = 0;
  // The culprit the KStest identification sweep named (0 = none/inconclusive)
  // and whether the hardware evidence agrees.
  OwnerId kstest_culprit = 0;
  bool kstest_agrees = false;
};

class ForensicsEngine {
 public:
  // Collects evidence for VM `target` on `hypervisor`'s machine, which must
  // have MachineConfig::attribution enabled.
  ForensicsEngine(vm::Hypervisor& hypervisor, OwnerId target,
                  const ForensicsConfig& config = {});

  ForensicsEngine(const ForensicsEngine&) = delete;
  ForensicsEngine& operator=(const ForensicsEngine&) = delete;

  // Samples one attribution span into the evidence window. Call once per
  // tick, alongside the detector's OnTick.
  void OnTick();

  // Builds the forensic report for an alarm raised at `alarm_tick`. Pass the
  // KStest sweep's identified attacker when one exists (0 otherwise). Emits
  // a "forensic_report" trace event and a detector="Forensics" audit record
  // when telemetry is attached, and appends the report to reports().
  const ForensicReport& OnAlarm(Tick alarm_tick, OwnerId kstest_culprit = 0);

  const ForensicsConfig& config() const { return config_; }
  std::size_t window_size() const { return window_.size(); }
  // Every report built, in alarm order.
  const std::vector<ForensicReport>& reports() const { return reports_; }

 private:
  vm::Hypervisor& hypervisor_;
  OwnerId target_;
  ForensicsConfig config_;
  pcm::AttributionSampler sampler_;
  RingBuffer<pcm::AttributionSpan> window_;
  std::vector<ForensicReport> reports_;
};

// Deterministic renderings for tools and the eval sweep: a compact JSON
// object and the human-readable section trace_inspect prints
// under --forensics.
void WriteForensicReportJson(std::ostream& os, const ForensicReport& report);
void WriteForensicReportText(std::ostream& os, const ForensicReport& report);

}  // namespace sds::detect
