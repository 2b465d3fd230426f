// The KStest baseline detector (Zhang et al. [49], restated in Section 3.2).
//
// Every L_R ticks the detector throttles every VM except the protected one
// and collects W_R ticks of PCM samples as the REFERENCE (clean-by-
// construction, since nothing else runs). Afterwards, every L_M ticks it
// collects W_M ticks of MONITORED samples and runs a two-sample
// Kolmogorov-Smirnov test per channel against the reference; four
// consecutive rejections on a channel raise a SUSPICION, and a passing test
// clears the decision.
//
// Attacker identification. The baseline system in [49] does not stop at
// suspicion: it must identify which co-located VM causes the contention (the
// provider's response — migration or termination — needs a culprit). On
// suspicion the detector sweeps the co-located VMs, throttling them ONE AT A
// TIME and re-collecting monitored samples: the candidate whose pause makes
// the statistics match the reference again is the attacker. The sweep always
// examines every candidate (several VMs could collude), after which the
// alarm is raised — attributed when a culprit emerged, unattributed when
// the anomaly persisted throughout (the provider still must act). This
// sweep, layered on top of the deliberately infrequent throttled reference
// collection, is what makes the baseline's detection delay 20-50 s and its
// overhead 3-8% in the paper; both effects emerge mechanically here.
//
// One further modelling note, called out in DESIGN.md: the consecutive-
// rejection counters reset when the reference is refreshed — decisions made
// against different references are not comparable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include <memory>

#include "detect/degrade.h"
#include "detect/detector.h"
#include "detect/params.h"
#include "pcm/pcm_sampler.h"
#include "pcm/sample_source.h"
#include "vm/hypervisor.h"

namespace sds::detect {

// One KS decision (both channels), logged for the Figure 1 reproduction.
struct KsDecision {
  Tick tick = 0;
  bool rejected_access = false;
  bool rejected_miss = false;
  double statistic_access = 0.0;
  double statistic_miss = 0.0;
  bool rejected() const { return rejected_access || rejected_miss; }
};

// Extended baseline parameters beyond KsTestParams: the identification sweep.
struct KsIdentificationParams {
  // Run the identification sweep on suspicion (the full [49] pipeline).
  // Disabled, suspicion raises the alarm directly.
  bool enabled = true;
  // Ticks to let the machine settle after throttling a candidate before
  // sampling it.
  Tick settle = 100;
  // Ticks of samples collected per candidate (the candidate stays throttled
  // for settle + window).
  Tick window = 100;
};

class KsTestDetector final : public Detector {
 public:
  // Owns a perfect PcmSampler; bit-identical to the pre-seam detector
  // (pinned by tests/integration/golden_regression_test).
  KsTestDetector(vm::Hypervisor& hypervisor, OwnerId target,
                 const KsTestParams& params,
                 const KsIdentificationParams& ident = {});

  // Monitoring-plane seam: reads `source` (nullptr = own a PcmSampler)
  // through a DegradingSampleGate. Collections tolerate gaps by extending —
  // with their throttles re-armed so the collection conditions hold — up to
  // kCollectSlackFactor times their window, after which they are abandoned
  // (reference: keep the old one; monitored: test if at least half the
  // window arrived, else skip; identification candidate: scored
  // inconclusive-worst, since an unmeasurable candidate cannot be
  // exonerated).
  KsTestDetector(vm::Hypervisor& hypervisor, OwnerId target,
                 const KsTestParams& params,
                 const KsIdentificationParams& ident,
                 pcm::SampleSource* source, const DegradeConfig& degrade);

  void OnTick() override;
  bool attack_active() const override { return attack_active_; }
  std::uint64_t alarm_events() const override { return alarm_events_; }
  Tick last_alarm_trigger_tick() const override { return last_trigger_; }
  std::string_view name() const override { return "KStest"; }

  const std::vector<KsDecision>& decisions() const { return decisions_; }
  bool has_reference() const { return reference_ready_; }
  int consecutive_rejections_access() const { return consecutive_access_; }
  int consecutive_rejections_miss() const { return consecutive_miss_; }
  // The culprit of the most recent identified alarm (0 = unattributed).
  OwnerId identified_attacker() const { return identified_attacker_; }
  std::uint64_t identification_sweeps() const { return sweeps_; }

  // Degradation introspection.
  const DegradingSampleGate& gate() const { return gate_; }
  // Collections that ran out of slack and were abandoned (reference /
  // monitored / identification candidates, respectively).
  std::uint64_t abandoned_collections() const {
    return abandoned_references_ + abandoned_monitored_ +
           abandoned_candidates_;
  }
  std::uint64_t abandoned_references() const { return abandoned_references_; }
  std::uint64_t abandoned_monitored() const { return abandoned_monitored_; }
  std::uint64_t abandoned_candidates() const { return abandoned_candidates_; }

  // A gapped collection may extend to this multiple of its window before it
  // is abandoned.
  static constexpr Tick kCollectSlackFactor = 2;

  // Snapshot/restore at a tick boundary (DESIGN.md §13). Serialized: the
  // full collection state machine (including mid-collection staging and the
  // identification sweep), reference windows, consecutive counters, alarm
  // state and the gate/watchdog. NOT serialized: the PCM sampler (restore
  // Start()s the replacement source when the saved state needs one running,
  // re-baselining its cumulative counters at the same tick boundary) and
  // the decisions_ introspection log (a restored detector logs from empty
  // but decides bit-identically). Restore must target the SAME still-running
  // hypervisor world: throttles the old detector armed persist there and are
  // deliberately not re-issued. ConfigFingerprint() refuses a snapshot from
  // different params.
  std::uint64_t ConfigFingerprint() const;
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  enum class State : std::uint8_t {
    kIdle,
    kCollectingReference,
    kCollectingMonitored,
    kIdentifySettling,
    kIdentifyCollecting,
  };

  // Decision auditing (no-ops when the hypervisor has no telemetry handle).
  void AuditKsDecision(const char* channel, double p_value, double statistic,
                       int consecutive);
  void TraceDetect(const char* name, std::int64_t owner, const char* key,
                   double value);

  void StartReference();
  void StartMonitored();
  void FinishReference();
  void FinishMonitored();
  void StartIdentification();
  void StartNextCandidate();
  void FinishCandidate();
  void FinishIdentification();

  // One collecting-state tick: reads the gate, handles gaps (throttle
  // re-arm, slack deadline) and finishes the collection when full.
  void CollectTick();
  // The current collection ran out of slack; dispose of it per state.
  void AbandonCollection();

  vm::Hypervisor& hypervisor_;
  std::unique_ptr<pcm::PcmSampler> owned_sampler_;
  pcm::SampleSource& source_;
  KsTestParams params_;
  KsIdentificationParams ident_;
  DegradingSampleGate gate_;

  State state_ = State::kIdle;
  Tick local_tick_ = 0;  // ticks since detector start, plus grid offset
  Tick collected_ = 0;
  // Ticks spent in the current collection, including gap ticks.
  Tick collect_elapsed_ = 0;
  Tick settle_left_ = 0;
  std::uint64_t abandoned_references_ = 0;
  std::uint64_t abandoned_monitored_ = 0;
  std::uint64_t abandoned_candidates_ = 0;

  std::vector<double> ref_access_;
  std::vector<double> ref_miss_;
  std::vector<double> staging_access_;
  std::vector<double> staging_miss_;
  bool reference_ready_ = false;

  int consecutive_access_ = 0;
  int consecutive_miss_ = 0;
  bool attack_active_ = false;
  bool identified_alarm_ = false;

  // Identification sweep state.
  std::vector<OwnerId> candidates_;
  std::size_t candidate_index_ = 0;
  // Channel(s) whose suspicion triggered the sweep.
  bool sweep_on_access_ = false;
  bool sweep_on_miss_ = false;
  // Per-candidate outcome of the sweep: the worst p-value / KS statistic
  // over the triggered channels while that candidate was paused.
  struct CandidateResult {
    OwnerId vm = 0;
    double p_value = 0.0;
    double statistic = 1.0;
  };
  std::vector<CandidateResult> candidate_results_;
  OwnerId identified_attacker_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t alarm_events_ = 0;
  Tick suspicion_tick_ = kInvalidTick;
  Tick last_trigger_ = kInvalidTick;

  std::vector<KsDecision> decisions_;
};

}  // namespace sds::detect
