#include "detect/sds_detector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::detect {

namespace tel = sds::telemetry;

const char* SdsModeName(SdsMode mode) {
  switch (mode) {
    case SdsMode::kBoundaryOnly:
      return "SDS/B";
    case SdsMode::kPeriodOnly:
      return "SDS/P";
    case SdsMode::kCombined:
      return "SDS";
  }
  return "?";
}

SdsDetector::SdsDetector(vm::Hypervisor& hypervisor, OwnerId target,
                         const SdsProfile& profile,
                         const DetectorParams& params, SdsMode mode)
    : SdsDetector(hypervisor, target, profile, params, mode, nullptr,
                  DegradeConfig{}) {}

SdsDetector::SdsDetector(vm::Hypervisor& hypervisor, OwnerId target,
                         const SdsProfile& profile,
                         const DetectorParams& params, SdsMode mode,
                         pcm::SampleSource* source,
                         const DegradeConfig& degrade)
    : hypervisor_(hypervisor),
      owned_sampler_(source ? nullptr
                            : std::make_unique<pcm::PcmSampler>(hypervisor,
                                                                target)),
      source_(source ? *source : *owned_sampler_),
      profile_(profile),
      params_(params),
      mode_(mode),
      name_(SdsModeName(mode)),
      gate_(hypervisor, source_, degrade, SdsModeName(mode)),
      profile_periodic_(profile.periodic()) {
  SDS_CHECK(source_.target() == target,
            "SampleSource monitors a different VM than the detector");
  Rewarm();
  SDS_CHECK(mode != SdsMode::kPeriodOnly || profile_periodic_,
            "SDS/P requires a periodic profile");
  if (!source_.started()) source_.Start();
  gate_.OnSessionStart();
}

void SdsDetector::Rewarm() {
  b_access_ =
      std::make_unique<BoundaryAnalyzer>(profile_.access_boundary, params_);
  b_miss_ =
      std::make_unique<BoundaryAnalyzer>(profile_.miss_boundary, params_);
  p_access_.reset();
  p_miss_.reset();
  if (profile_.access_period) {
    p_access_ =
        std::make_unique<PeriodAnalyzer>(*profile_.access_period, params_);
  }
  if (profile_.miss_period) {
    p_miss_ = std::make_unique<PeriodAnalyzer>(*profile_.miss_period, params_);
  }
}

void SdsDetector::AuditBoundary(Tick tick, const char* channel,
                                const BoundaryAnalyzer& analyzer, double ewma,
                                bool alarm) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  tel::AuditRecord r;
  r.tick = tick;
  r.detector = SdsModeName(mode_);
  r.check = "boundary";
  r.channel = channel;
  r.value = ewma;
  r.lower = analyzer.lower_bound();
  r.upper = analyzer.upper_bound();
  r.violation = ewma < r.lower || ewma > r.upper;
  // Margin in clean-profile sigma units: how far beyond the Chebyshev bound
  // the EWMA value sits (negative = inside, with that much headroom).
  const double sigma = std::max(analyzer.profile().stddev, 1e-12);
  const double outside = std::max(r.lower - ewma, ewma - r.upper);
  r.margin = outside / sigma;
  r.consecutive = analyzer.consecutive_violations();
  r.alarm = alarm;
  t->audit().Append(r);
  if (t->tracer().enabled(tel::Layer::kDetect)) {
    t->tracer().Emit(tel::MakeEvent(tick, tel::Layer::kDetect,
                                    "boundary_check")
                         .Str("channel", channel)
                         .Num("ewma", ewma)
                         .Num("violation", r.violation ? 1.0 : 0.0)
                         .Num("consecutive", r.consecutive));
  }
}

void SdsDetector::AuditPeriod(Tick tick, const char* channel,
                              const PeriodAnalyzer& analyzer,
                              const PeriodCheck& check, bool alarm) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  const double nominal = analyzer.profile().period;
  tel::AuditRecord r;
  r.tick = tick;
  r.detector = SdsModeName(mode_);
  r.check = "period";
  r.channel = channel;
  r.value = check.period.value_or(0.0);
  r.lower = nominal * (1.0 - analyzer.tolerance());
  r.upper = nominal * (1.0 + analyzer.tolerance());
  r.violation = check.abnormal;
  // Margin as relative period deviation beyond the tolerance band; an
  // undetectable period is maximally abnormal.
  if (check.period.has_value() && nominal > 0.0) {
    r.margin =
        std::fabs(*check.period - nominal) / nominal - analyzer.tolerance();
  } else {
    r.margin = 1.0;
  }
  r.consecutive = analyzer.consecutive_abnormal();
  r.alarm = alarm;
  t->audit().Append(r);
  if (t->tracer().enabled(tel::Layer::kDetect)) {
    t->tracer().Emit(tel::MakeEvent(tick, tel::Layer::kDetect, "period_check")
                         .Str("channel", channel)
                         .Num("period", r.value)
                         .Num("abnormal", r.violation ? 1.0 : 0.0)
                         .Num("consecutive", r.consecutive));
  }
}

void SdsDetector::OnTick() {
  const DegradingSampleGate::Outcome out = gate_.OnTick();
  if (out.rewarm) Rewarm();
  // No usable sample and nothing to substitute: analyzers freeze this tick.
  if (!out.sample) return;
  const pcm::PcmSample s = *out.sample;
  const auto access = static_cast<double>(s.access_num);
  const auto miss = static_cast<double>(s.miss_num);
  const auto ewma_access = b_access_->Observe(access);
  const auto ewma_miss = b_miss_->Observe(miss);
  std::optional<PeriodCheck> check_access, check_miss;
  if (p_access_) check_access = p_access_->Observe(access);
  if (p_miss_) check_miss = p_miss_->Observe(miss);

  const bool active = attack_active();

  // Audit every decision made this tick. EWMA windows on both channels
  // complete together (same W/dW), so this is one audit pair per decision
  // interval.
  if (ewma_access) AuditBoundary(s.tick, "AccessNum", *b_access_,
                                 *ewma_access, active);
  if (ewma_miss) AuditBoundary(s.tick, "MissNum", *b_miss_, *ewma_miss,
                               active);
  if (check_access) AuditPeriod(s.tick, "AccessNum", *p_access_,
                                *check_access, active);
  if (check_miss) AuditPeriod(s.tick, "MissNum", *p_miss_, *check_miss,
                              active);

  if (active && !was_active_) {
    ++alarm_events_;
    last_trigger_ = s.tick;
    tel::Telemetry* t = hypervisor_.telemetry();
    if (t && t->tracer().enabled(tel::Layer::kDetect)) {
      t->tracer().Emit(tel::MakeEvent(s.tick, tel::Layer::kDetect,
                                      "alarm_raised")
                           .Str("detector", SdsModeName(mode_))
                           .Num("boundary_active", boundary_active() ? 1 : 0)
                           .Num("period_active", period_active() ? 1 : 0));
    }
  } else if (!active && was_active_) {
    ++retraction_events_;
    last_retraction_ = s.tick;
    tel::Telemetry* t = hypervisor_.telemetry();
    if (t && t->tracer().enabled(tel::Layer::kDetect)) {
      t->tracer().Emit(tel::MakeEvent(s.tick, tel::Layer::kDetect,
                                      "alarm_cleared")
                           .Str("detector", SdsModeName(mode_)));
    }
  }
  was_active_ = active;
}

std::uint64_t SdsDetector::ConfigFingerprint() const {
  SnapshotWriter w;
  w.U32(static_cast<std::uint32_t>(mode_));
  w.F64(profile_.access_boundary.mean);
  w.F64(profile_.access_boundary.stddev);
  w.F64(profile_.miss_boundary.mean);
  w.F64(profile_.miss_boundary.stddev);
  w.Bool(profile_.access_period.has_value());
  if (profile_.access_period) {
    w.F64(profile_.access_period->period);
    w.F64(profile_.access_period->strength);
  }
  w.Bool(profile_.miss_period.has_value());
  if (profile_.miss_period) {
    w.F64(profile_.miss_period->period);
    w.F64(profile_.miss_period->strength);
  }
  w.U64(params_.window);
  w.U64(params_.step);
  w.F64(params_.alpha);
  w.F64(params_.boundary_k);
  w.I64(params_.h_c);
  w.F64(params_.wp_multiplier);
  w.U64(params_.delta_wp);
  w.I64(params_.h_p);
  w.F64(params_.period_tolerance);
  return Fnv1a(w.data());
}

void SdsDetector::SaveState(SnapshotWriter& w) const {
  gate_.SaveState(w);
  b_access_->SaveState(w);
  b_miss_->SaveState(w);
  w.Bool(p_access_ != nullptr);
  if (p_access_) p_access_->SaveState(w);
  w.Bool(p_miss_ != nullptr);
  if (p_miss_) p_miss_->SaveState(w);
  w.Bool(was_active_);
  w.U64(alarm_events_);
  w.I64(last_trigger_);
  w.U64(retraction_events_);
  w.I64(last_retraction_);
}

bool SdsDetector::RestoreState(SnapshotReader& r) {
  if (!gate_.RestoreState(r)) return false;
  if (!b_access_->RestoreState(r)) return false;
  if (!b_miss_->RestoreState(r)) return false;
  const bool has_p_access = r.Bool();
  if (!r.ok() || has_p_access != (p_access_ != nullptr)) return false;
  if (p_access_ && !p_access_->RestoreState(r)) return false;
  const bool has_p_miss = r.Bool();
  if (!r.ok() || has_p_miss != (p_miss_ != nullptr)) return false;
  if (p_miss_ && !p_miss_->RestoreState(r)) return false;
  const bool was_active = r.Bool();
  const std::uint64_t alarm_events = r.U64();
  const std::int64_t last_trigger = r.I64();
  const std::uint64_t retraction_events = r.U64();
  const std::int64_t last_retraction = r.I64();
  if (!r.ok()) return false;
  was_active_ = was_active;
  alarm_events_ = alarm_events;
  last_trigger_ = static_cast<Tick>(last_trigger);
  retraction_events_ = retraction_events;
  last_retraction_ = static_cast<Tick>(last_retraction);
  return true;
}

bool SdsDetector::boundary_active() const {
  return b_access_->attack_active() || b_miss_->attack_active();
}

bool SdsDetector::period_active() const {
  return (p_access_ && p_access_->attack_active()) ||
         (p_miss_ && p_miss_->attack_active());
}

bool SdsDetector::attack_active() const {
  switch (mode_) {
    case SdsMode::kBoundaryOnly:
      return boundary_active();
    case SdsMode::kPeriodOnly:
      return period_active();
    case SdsMode::kCombined:
      // Periodic applications need both schemes to agree; non-periodic
      // applications are decided by SDS/B alone.
      return profile_periodic_ ? (boundary_active() && period_active())
                               : boundary_active();
  }
  return false;
}

}  // namespace sds::detect
