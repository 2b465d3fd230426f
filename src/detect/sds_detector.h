// The SDS detection system (Section 5.1): SDS/B alone, SDS/P alone, or the
// combined SDS, wired to a live hypervisor through one always-on PCM sampler.
//
// Channel policy: both statistic channels are monitored simultaneously —
// AccessNum catches the bus locking attack, MissNum the LLC cleansing attack
// — and a scheme is active when EITHER channel's analyzer is active. The
// combined SDS follows the paper exactly: for non-periodic applications only
// SDS/B decides; for periodic applications BOTH SDS/B and SDS/P must agree
// before the alarm is raised (this conjunction removes residual false
// positives, Figure 10).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "detect/boundary.h"
#include "detect/degrade.h"
#include "detect/detector.h"
#include "detect/period.h"
#include "detect/profile.h"
#include "pcm/pcm_sampler.h"
#include "pcm/sample_source.h"
#include "vm/hypervisor.h"

namespace sds::detect {

enum class SdsMode : std::uint8_t {
  kBoundaryOnly,  // SDS/B
  kPeriodOnly,    // SDS/P (valid only for periodic applications)
  kCombined,      // SDS
};

const char* SdsModeName(SdsMode mode);

class SdsDetector final : public Detector {
 public:
  // The profile must come from a clean window of the same application
  // (BuildSdsProfile). For kPeriodOnly the profile must be periodic.
  //
  // This overload owns a perfect PcmSampler and default degradation config;
  // it behaves bit-identically to the pre-seam detector (pinned by
  // tests/integration/golden_regression_test).
  SdsDetector(vm::Hypervisor& hypervisor, OwnerId target,
              const SdsProfile& profile, const DetectorParams& params,
              SdsMode mode);

  // Monitoring-plane seam: reads `source` (nullptr = own a PcmSampler)
  // through a DegradingSampleGate configured by `degrade`, so the detector
  // survives dropped samples, outages, corrupt reads and sampler death. An
  // external `source` must outlive the detector; the detector starts it.
  SdsDetector(vm::Hypervisor& hypervisor, OwnerId target,
              const SdsProfile& profile, const DetectorParams& params,
              SdsMode mode, pcm::SampleSource* source,
              const DegradeConfig& degrade);

  void OnTick() override;
  bool attack_active() const override;
  std::uint64_t alarm_events() const override { return alarm_events_; }
  Tick last_alarm_trigger_tick() const override { return last_trigger_; }
  std::uint64_t retraction_events() const override {
    return retraction_events_;
  }
  Tick last_retraction_tick() const override { return last_retraction_; }
  std::string_view name() const override { return name_; }

  // Introspection for the example binaries and the Figure 7/8 benches.
  const BoundaryAnalyzer& access_boundary() const { return *b_access_; }
  const BoundaryAnalyzer& miss_boundary() const { return *b_miss_; }
  const PeriodAnalyzer* access_period() const { return p_access_.get(); }
  const PeriodAnalyzer* miss_period() const { return p_miss_.get(); }
  bool boundary_active() const;
  bool period_active() const;
  SdsMode mode() const { return mode_; }

  // Degradation activity of this detector's sample gate.
  const DegradingSampleGate& gate() const { return gate_; }

  // Snapshot/restore at a tick boundary (DESIGN.md §13) so a monitoring
  // service restarts without re-warming its analyzer windows. Serialized:
  // analyzer pipelines (both channels), gate + watchdog state, and alarm
  // edge tracking. NOT serialized: the PCM sampler (restore assumes the
  // replacement source Start()s at the same tick boundary, which
  // re-baselines its cumulative counters to exactly where the old sampler
  // left off) and telemetry handles. ConfigFingerprint() hashes the
  // profile/params/mode so a snapshot cannot restore into a detector built
  // with a different configuration.
  std::uint64_t ConfigFingerprint() const;
  void SaveState(SnapshotWriter& w) const;
  bool RestoreState(SnapshotReader& r);

 private:
  // Resets the preprocessing pipeline (EWMA/MA windows, consecutive
  // counters) after a gap or sampler restart severed the sample stream; the
  // clean profile itself stays valid.
  void Rewarm();
  // Decision auditing (no-ops when the hypervisor has no telemetry handle).
  void AuditBoundary(Tick tick, const char* channel,
                     const BoundaryAnalyzer& analyzer, double ewma,
                     bool alarm);
  void AuditPeriod(Tick tick, const char* channel,
                   const PeriodAnalyzer& analyzer, const PeriodCheck& check,
                   bool alarm);

  vm::Hypervisor& hypervisor_;
  // Set when the detector owns its (perfect) sampler; source_ then refers
  // to it. With an external SampleSource, owned_sampler_ stays null.
  std::unique_ptr<pcm::PcmSampler> owned_sampler_;
  pcm::SampleSource& source_;
  // Kept so Rewarm() can rebuild the analyzers from scratch.
  SdsProfile profile_;
  DetectorParams params_;
  SdsMode mode_;
  std::string name_;
  DegradingSampleGate gate_;
  std::unique_ptr<BoundaryAnalyzer> b_access_;
  std::unique_ptr<BoundaryAnalyzer> b_miss_;
  std::unique_ptr<PeriodAnalyzer> p_access_;
  std::unique_ptr<PeriodAnalyzer> p_miss_;
  bool profile_periodic_;
  bool was_active_ = false;
  std::uint64_t alarm_events_ = 0;
  Tick last_trigger_ = kInvalidTick;
  std::uint64_t retraction_events_ = 0;
  Tick last_retraction_ = kInvalidTick;
};

}  // namespace sds::detect
