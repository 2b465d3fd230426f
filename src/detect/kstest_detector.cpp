#include "detect/kstest_detector.h"

#include <algorithm>

#include "common/check.h"
#include "stats/ks_test.h"
#include "telemetry/telemetry.h"

namespace sds::detect {

namespace tel = sds::telemetry;

void KsTestDetector::TraceDetect(const char* name, std::int64_t owner,
                                 const char* key, double value) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t || !t->tracer().enabled(tel::Layer::kDetect)) return;
  tel::TraceEvent e =
      tel::MakeEvent(hypervisor_.now(), tel::Layer::kDetect, name, owner);
  e.Str("detector", "KStest");
  if (key) e.Num(key, value);
  t->tracer().Emit(e);
}

void KsTestDetector::AuditKsDecision(const char* channel, double p_value,
                                     double statistic, int consecutive) {
  tel::Telemetry* t = hypervisor_.telemetry();
  if (!t) return;
  tel::AuditRecord r;
  r.tick = hypervisor_.now();
  r.detector = "KStest";
  r.check = "kstest";
  r.channel = channel;
  r.value = p_value;
  // The test passes while the p-value stays in [alpha, 1]. Margin is the
  // rejection depth relative to the significance level.
  r.lower = params_.alpha;
  r.upper = 1.0;
  r.violation = p_value < params_.alpha;
  r.margin = (params_.alpha - p_value) / params_.alpha;
  r.consecutive = consecutive;
  r.alarm = attack_active_;
  t->audit().Append(r);
  if (t->tracer().enabled(tel::Layer::kDetect)) {
    t->tracer().Emit(tel::MakeEvent(r.tick, tel::Layer::kDetect,
                                    "ks_decision")
                         .Str("channel", channel)
                         .Num("p_value", p_value)
                         .Num("statistic", statistic)
                         .Num("rejected", r.violation ? 1.0 : 0.0)
                         .Num("consecutive", consecutive));
  }
}

KsTestDetector::KsTestDetector(vm::Hypervisor& hypervisor, OwnerId target,
                               const KsTestParams& params,
                               const KsIdentificationParams& ident)
    : KsTestDetector(hypervisor, target, params, ident, nullptr,
                     DegradeConfig{}) {}

KsTestDetector::KsTestDetector(vm::Hypervisor& hypervisor, OwnerId target,
                               const KsTestParams& params,
                               const KsIdentificationParams& ident,
                               pcm::SampleSource* source,
                               const DegradeConfig& degrade)
    : hypervisor_(hypervisor),
      owned_sampler_(source ? nullptr
                            : std::make_unique<pcm::PcmSampler>(hypervisor,
                                                                target)),
      source_(source ? *source : *owned_sampler_),
      params_(params),
      ident_(ident),
      gate_(hypervisor, source_, degrade, "KStest") {
  SDS_CHECK(source_.target() == target,
            "SampleSource monitors a different VM than the detector");
  SDS_CHECK(params.w_r > 0 && params.w_m > 0, "windows must be positive");
  SDS_CHECK(params.l_r >= params.w_r, "L_R must cover W_R");
  SDS_CHECK(params.l_m >= params.w_m, "L_M must cover W_M");
  SDS_CHECK(params.alpha > 0.0 && params.alpha < 1.0,
            "significance level must be in (0,1)");
  SDS_CHECK(params.consecutive_rejections >= 1,
            "need at least one rejection");
  SDS_CHECK(params.initial_offset >= 0 && params.initial_offset < params.l_r,
            "grid offset must be within one L_R interval");
  SDS_CHECK(!ident.enabled || (ident.settle >= 0 && ident.window > 0),
            "bad identification window");
  local_tick_ = params.initial_offset;
}

void KsTestDetector::StartReference() {
  if (source_.started()) source_.Stop();  // abort a monitored collection
  state_ = State::kCollectingReference;
  collected_ = 0;
  collect_elapsed_ = 0;
  staging_access_.clear();
  staging_miss_.clear();
  hypervisor_.ThrottleAllExcept(source_.target(), params_.w_r);
  source_.Start();
  gate_.OnSessionStart();
  TraceDetect("reference_start", source_.target(), "window",
              static_cast<double>(params_.w_r));
}

void KsTestDetector::StartMonitored() {
  state_ = State::kCollectingMonitored;
  collected_ = 0;
  collect_elapsed_ = 0;
  staging_access_.clear();
  staging_miss_.clear();
  source_.Start();
  gate_.OnSessionStart();
}

void KsTestDetector::FinishReference() {
  source_.Stop();
  state_ = State::kIdle;
  ref_access_ = staging_access_;
  ref_miss_ = staging_miss_;
  reference_ready_ = true;
  // Decisions against the previous reference are not comparable with
  // decisions against the new one: restart the consecutive counts.
  consecutive_access_ = 0;
  consecutive_miss_ = 0;
  TraceDetect("reference_ready", source_.target(), "samples",
              static_cast<double>(ref_access_.size()));
}

void KsTestDetector::FinishMonitored() {
  source_.Stop();
  state_ = State::kIdle;

  KsDecision d;
  d.tick = hypervisor_.now();
  const auto res_access = TwoSampleKsTest(ref_access_, staging_access_);
  const auto res_miss = TwoSampleKsTest(ref_miss_, staging_miss_);
  d.statistic_access = res_access.statistic;
  d.rejected_access = res_access.p_value < params_.alpha;
  d.statistic_miss = res_miss.statistic;
  d.rejected_miss = res_miss.p_value < params_.alpha;
  decisions_.push_back(d);

  consecutive_access_ = d.rejected_access ? consecutive_access_ + 1 : 0;
  consecutive_miss_ = d.rejected_miss ? consecutive_miss_ + 1 : 0;
  const int audit_consecutive_access = consecutive_access_;
  const int audit_consecutive_miss = consecutive_miss_;

  // A fully passing test clears any standing alarm: the statistics are back
  // to the reference distribution.
  if (!d.rejected_access && !d.rejected_miss) identified_alarm_ = false;

  const bool suspicion_access =
      consecutive_access_ >= params_.consecutive_rejections;
  const bool suspicion_miss =
      consecutive_miss_ >= params_.consecutive_rejections;
  if (suspicion_access || suspicion_miss) {
    suspicion_tick_ = hypervisor_.now();
    if (ident_.enabled) {
      sweep_on_access_ = suspicion_access;
      sweep_on_miss_ = suspicion_miss;
      StartIdentification();
    } else {
      identified_alarm_ = true;
      ++alarm_events_;
      last_trigger_ = suspicion_tick_;
    }
    consecutive_access_ = 0;
    consecutive_miss_ = 0;
  }

  attack_active_ = identified_alarm_;

  // Audit both channels once the decision (and any resulting alarm state
  // short of a pending identification sweep) is settled.
  AuditKsDecision("AccessNum", res_access.p_value, res_access.statistic,
                  audit_consecutive_access);
  AuditKsDecision("MissNum", res_miss.p_value, res_miss.statistic,
                  audit_consecutive_miss);
}

void KsTestDetector::StartIdentification() {
  ++sweeps_;
  TraceDetect("identification_start", source_.target(), "sweep",
              static_cast<double>(sweeps_));
  candidates_.clear();
  for (OwnerId id = 1; id <= hypervisor_.vm_count(); ++id) {
    if (id != source_.target()) candidates_.push_back(id);
  }
  candidate_index_ = 0;
  candidate_results_.clear();
  if (candidates_.empty()) {
    // Nothing co-located: the anomaly cannot be another tenant, but the
    // statistics are persistently wrong — raise the (unattributed) alarm.
    FinishIdentification();
    return;
  }
  StartNextCandidate();
}

void KsTestDetector::StartNextCandidate() {
  const OwnerId candidate = candidates_[candidate_index_];
  hypervisor_.ThrottleVm(candidate, ident_.settle + ident_.window);
  settle_left_ = ident_.settle;
  staging_access_.clear();
  staging_miss_.clear();
  collected_ = 0;
  collect_elapsed_ = 0;
  state_ = settle_left_ > 0 ? State::kIdentifySettling
                            : State::kIdentifyCollecting;
  if (state_ == State::kIdentifyCollecting) {
    source_.Start();
    gate_.OnSessionStart();
  }
}

void KsTestDetector::FinishCandidate() {
  source_.Stop();
  // Does pausing this candidate restore the reference distribution on the
  // channel(s) that raised the suspicion?
  CandidateResult result;
  result.vm = candidates_[candidate_index_];
  result.p_value = 2.0;   // min() below picks the worst channel
  result.statistic = 0.0; // max() below picks the worst channel
  if (sweep_on_access_) {
    const auto r = TwoSampleKsTest(ref_access_, staging_access_);
    result.p_value = std::min(result.p_value, r.p_value);
    result.statistic = std::max(result.statistic, r.statistic);
  }
  if (sweep_on_miss_) {
    const auto r = TwoSampleKsTest(ref_miss_, staging_miss_);
    result.p_value = std::min(result.p_value, r.p_value);
    result.statistic = std::max(result.statistic, r.statistic);
  }
  candidate_results_.push_back(result);
  TraceDetect("candidate_result", result.vm, "p_value", result.p_value);
  if (++candidate_index_ >= candidates_.size()) {
    FinishIdentification();
  } else {
    StartNextCandidate();
  }
}

void KsTestDetector::FinishIdentification() {
  state_ = State::kIdle;
  // Attributed when some candidate's pause restored normality. Two rules:
  //   * absolute — the throttled-candidate window passes the KS test
  //     against the reference; or
  //   * relative — its KS statistic is clearly smaller than every other
  //     candidate's (the stale reference may have drifted, but pausing the
  //     real attacker makes that window a clear outlier among the sweeps).
  // The alarm is raised either way — the contention is real even if no
  // single culprit emerged (e.g. colluding VMs).
  identified_attacker_ = 0;
  if (!candidate_results_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidate_results_.size(); ++i) {
      if (candidate_results_[i].statistic <
          candidate_results_[best].statistic) {
        best = i;
      }
    }
    double second = 1.0;
    for (std::size_t i = 0; i < candidate_results_.size(); ++i) {
      if (i != best) second = std::min(second, candidate_results_[i].statistic);
    }
    const auto& winner = candidate_results_[best];
    if (winner.p_value >= params_.alpha ||
        winner.statistic < 0.6 * second) {
      identified_attacker_ = winner.vm;
    }
  }
  identified_alarm_ = true;
  attack_active_ = true;
  ++alarm_events_;
  last_trigger_ = suspicion_tick_;
  TraceDetect("alarm_raised",
              identified_attacker_ == 0
                  ? -1
                  : static_cast<std::int64_t>(identified_attacker_),
              "suspicion_tick", static_cast<double>(suspicion_tick_));
}

void KsTestDetector::CollectTick() {
  ++collect_elapsed_;
  const DegradingSampleGate::Outcome out = gate_.OnTick();
  if (out.rewarm) {
    // The source was re-baselined (or a long gap severed the stream):
    // pre-gap staging no longer connects to what follows.
    staging_access_.clear();
    staging_miss_.clear();
    collected_ = 0;
  }
  if (out.sample) {
    staging_access_.push_back(static_cast<double>(out.sample->access_num));
    staging_miss_.push_back(static_cast<double>(out.sample->miss_num));
    ++collected_;
  } else {
    // Gap tick: the collection extends past its nominal window, so re-arm
    // the throttle that defines its measurement conditions.
    if (state_ == State::kCollectingReference) {
      hypervisor_.ThrottleAllExcept(source_.target(),
                                    params_.w_r - collected_ + 1);
    } else if (state_ == State::kIdentifyCollecting) {
      hypervisor_.ThrottleVm(candidates_[candidate_index_],
                             ident_.window - collected_ + 1);
    }
  }

  const Tick window = state_ == State::kCollectingReference ? params_.w_r
                      : state_ == State::kCollectingMonitored
                          ? params_.w_m
                          : ident_.window;
  if (collected_ >= window) {
    if (state_ == State::kCollectingReference) {
      FinishReference();
    } else if (state_ == State::kCollectingMonitored) {
      FinishMonitored();
    } else {
      FinishCandidate();
    }
  } else if (collect_elapsed_ >= kCollectSlackFactor * window) {
    // Out of slack. A monitored/candidate window that is at least half full
    // still supports a (weaker) KS decision; anything less — and any
    // partial reference, which must be a full clean window — is abandoned.
    if (state_ != State::kCollectingReference && collected_ >= (window + 1) / 2) {
      if (state_ == State::kCollectingMonitored) {
        FinishMonitored();
      } else {
        FinishCandidate();
      }
    } else {
      AbandonCollection();
    }
  }
}

void KsTestDetector::AbandonCollection() {
  if (source_.started()) source_.Stop();
  const auto collected = static_cast<double>(collected_);
  switch (state_) {
    case State::kCollectingReference:
      // Keep the previous reference (stale beats absent); the next L_R tick
      // retries.
      ++abandoned_references_;
      TraceDetect("reference_abandoned", source_.target(), "collected",
                  collected);
      state_ = State::kIdle;
      break;
    case State::kCollectingMonitored:
      // No decision this round: consecutive counters are left untouched.
      ++abandoned_monitored_;
      TraceDetect("monitored_abandoned", source_.target(), "collected",
                  collected);
      state_ = State::kIdle;
      break;
    case State::kIdentifyCollecting: {
      // An unmeasurable candidate cannot be exonerated: score it
      // inconclusive-worst so attribution never lands on it by default.
      ++abandoned_candidates_;
      CandidateResult result;
      result.vm = candidates_[candidate_index_];
      result.p_value = 0.0;
      result.statistic = 1.0;
      candidate_results_.push_back(result);
      TraceDetect("candidate_abandoned", result.vm, "collected", collected);
      if (++candidate_index_ >= candidates_.size()) {
        FinishIdentification();
      } else {
        StartNextCandidate();
      }
      break;
    }
    default:
      break;
  }
}

std::uint64_t KsTestDetector::ConfigFingerprint() const {
  SnapshotWriter w;
  w.I64(params_.l_r);
  w.I64(params_.w_r);
  w.I64(params_.l_m);
  w.I64(params_.w_m);
  w.F64(params_.alpha);
  w.I64(params_.consecutive_rejections);
  w.I64(params_.initial_offset);
  w.Bool(ident_.enabled);
  w.I64(ident_.settle);
  w.I64(ident_.window);
  return Fnv1a(w.data());
}

void KsTestDetector::SaveState(SnapshotWriter& w) const {
  gate_.SaveState(w);
  w.U32(static_cast<std::uint32_t>(state_));
  w.I64(local_tick_);
  w.I64(collected_);
  w.I64(collect_elapsed_);
  w.I64(settle_left_);
  w.U64(abandoned_references_);
  w.U64(abandoned_monitored_);
  w.U64(abandoned_candidates_);
  w.VecF64(ref_access_);
  w.VecF64(ref_miss_);
  w.VecF64(staging_access_);
  w.VecF64(staging_miss_);
  w.Bool(reference_ready_);
  w.I64(consecutive_access_);
  w.I64(consecutive_miss_);
  w.Bool(attack_active_);
  w.Bool(identified_alarm_);
  w.U64(candidates_.size());
  for (OwnerId id : candidates_) w.U32(id);
  w.U64(candidate_index_);
  w.Bool(sweep_on_access_);
  w.Bool(sweep_on_miss_);
  w.U64(candidate_results_.size());
  for (const CandidateResult& cr : candidate_results_) {
    w.U32(cr.vm);
    w.F64(cr.p_value);
    w.F64(cr.statistic);
  }
  w.U32(identified_attacker_);
  w.U64(sweeps_);
  w.U64(alarm_events_);
  w.I64(suspicion_tick_);
  w.I64(last_trigger_);
}

bool KsTestDetector::RestoreState(SnapshotReader& r) {
  if (!gate_.RestoreState(r)) return false;
  const std::uint32_t state = r.U32();
  if (!r.ok() ||
      state > static_cast<std::uint32_t>(State::kIdentifyCollecting)) {
    return false;
  }
  const Tick local_tick = r.I64();
  const Tick collected = r.I64();
  const Tick collect_elapsed = r.I64();
  const Tick settle_left = r.I64();
  const std::uint64_t abandoned_references = r.U64();
  const std::uint64_t abandoned_monitored = r.U64();
  const std::uint64_t abandoned_candidates = r.U64();
  std::vector<double> ref_access = r.VecF64();
  std::vector<double> ref_miss = r.VecF64();
  std::vector<double> staging_access = r.VecF64();
  std::vector<double> staging_miss = r.VecF64();
  const bool reference_ready = r.Bool();
  const std::int64_t consecutive_access = r.I64();
  const std::int64_t consecutive_miss = r.I64();
  const bool attack_active = r.Bool();
  const bool identified_alarm = r.Bool();
  const std::uint64_t n_candidates = r.U64();
  if (!r.ok() || n_candidates > 1'000'000) return false;
  std::vector<OwnerId> candidates;
  candidates.reserve(n_candidates);
  for (std::uint64_t i = 0; i < n_candidates; ++i) {
    candidates.push_back(r.U32());
  }
  const std::uint64_t candidate_index = r.U64();
  const bool sweep_on_access = r.Bool();
  const bool sweep_on_miss = r.Bool();
  const std::uint64_t n_results = r.U64();
  if (!r.ok() || n_results > 1'000'000) return false;
  std::vector<CandidateResult> candidate_results;
  candidate_results.reserve(n_results);
  for (std::uint64_t i = 0; i < n_results; ++i) {
    CandidateResult cr;
    cr.vm = r.U32();
    cr.p_value = r.F64();
    cr.statistic = r.F64();
    candidate_results.push_back(cr);
  }
  const OwnerId identified_attacker = r.U32();
  const std::uint64_t sweeps = r.U64();
  const std::uint64_t alarm_events = r.U64();
  const Tick suspicion_tick = r.I64();
  const Tick last_trigger = r.I64();
  if (!r.ok() || consecutive_access < 0 || consecutive_miss < 0 ||
      collected < 0 || collect_elapsed < 0) {
    return false;
  }
  // A collecting state must index a live candidate when sweeping.
  const auto restored_state = static_cast<State>(state);
  if ((restored_state == State::kIdentifySettling ||
       restored_state == State::kIdentifyCollecting) &&
      candidate_index >= candidates.size()) {
    return false;
  }

  state_ = restored_state;
  local_tick_ = local_tick;
  collected_ = collected;
  collect_elapsed_ = collect_elapsed;
  settle_left_ = settle_left;
  abandoned_references_ = abandoned_references;
  abandoned_monitored_ = abandoned_monitored;
  abandoned_candidates_ = abandoned_candidates;
  ref_access_ = std::move(ref_access);
  ref_miss_ = std::move(ref_miss);
  staging_access_ = std::move(staging_access);
  staging_miss_ = std::move(staging_miss);
  reference_ready_ = reference_ready;
  consecutive_access_ = static_cast<int>(consecutive_access);
  consecutive_miss_ = static_cast<int>(consecutive_miss);
  attack_active_ = attack_active;
  identified_alarm_ = identified_alarm;
  candidates_ = std::move(candidates);
  candidate_index_ = candidate_index;
  sweep_on_access_ = sweep_on_access;
  sweep_on_miss_ = sweep_on_miss;
  candidate_results_ = std::move(candidate_results);
  identified_attacker_ = identified_attacker;
  sweeps_ = sweeps;
  alarm_events_ = alarm_events;
  suspicion_tick_ = suspicion_tick;
  last_trigger_ = last_trigger;

  // Re-establish the source session the restored state expects. Start()
  // re-baselines cumulative counters at this tick boundary, so the next
  // delta equals what the pre-restart sampler would have read. The gate
  // deliberately does NOT get OnSessionStart(): its restored state IS the
  // in-progress session.
  const bool need_started = state_ == State::kCollectingReference ||
                            state_ == State::kCollectingMonitored ||
                            state_ == State::kIdentifyCollecting;
  if (need_started && !source_.started()) {
    source_.Start();
  } else if (!need_started && source_.started()) {
    source_.Stop();
  }
  return true;
}

void KsTestDetector::OnTick() {
  switch (state_) {
    case State::kCollectingReference:
    case State::kCollectingMonitored:
    case State::kIdentifyCollecting:
      CollectTick();
      break;
    case State::kIdentifySettling: {
      if (--settle_left_ <= 0) {
        state_ = State::kIdentifyCollecting;
        collect_elapsed_ = 0;
        source_.Start();
        gate_.OnSessionStart();
      }
      break;
    }
    case State::kIdle:
      break;
  }

  ++local_tick_;

  // Schedule the next collection. The reference refresh takes priority over
  // monitored tests but never interrupts itself or an identification sweep.
  const bool busy = state_ == State::kCollectingReference ||
                    state_ == State::kIdentifySettling ||
                    state_ == State::kIdentifyCollecting;
  if (!busy && local_tick_ % params_.l_r == 0) {
    StartReference();
  } else if (state_ == State::kIdle && reference_ready_ &&
             local_tick_ % params_.l_m == 0) {
    StartMonitored();
  }
}
}  // namespace sds::detect
