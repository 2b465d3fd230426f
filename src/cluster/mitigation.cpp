#include "cluster/mitigation.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::cluster {

namespace tel = sds::telemetry;

namespace {
// Smoothing for the per-tick rate EWMA that backs the attacked-rate
// snapshot (~40-tick memory: long enough to ride out burst noise, short
// enough that 300 attacked ticks dominate a clean history).
constexpr double kRateAlpha = 0.05;
}  // namespace

const char* MitigationPolicyName(MitigationPolicy policy) {
  switch (policy) {
    case MitigationPolicy::kNone:
      return "none";
    case MitigationPolicy::kMigrateVictim:
      return "migrate-victim";
    case MitigationPolicy::kQuarantineAttacker:
      return "quarantine-attacker";
    case MitigationPolicy::kThrottleFallback:
      return "throttle-fallback";
  }
  return "?";
}

const char* MitigationStateName(MitigationState state) {
  switch (state) {
    case MitigationState::kIdle:
      return "idle";
    case MitigationState::kDispatched:
      return "dispatched";
    case MitigationState::kInFlight:
      return "in-flight";
    case MitigationState::kVerifying:
      return "verifying";
    case MitigationState::kSettled:
      return "settled";
    case MitigationState::kFailed:
      return "failed";
  }
  return "?";
}

MitigationEngine::MitigationEngine(Cluster& cluster, const VmRef& victim,
                                   MitigationPolicy policy, int spare_host)
    : MitigationEngine(cluster, victim,
                       [&] {
                         MitigationConfig config;
                         config.policy = policy;
                         config.spare_host = spare_host;
                         return config;
                       }(),
                       nullptr) {}

MitigationEngine::MitigationEngine(Cluster& cluster, const VmRef& victim,
                                   const MitigationConfig& config,
                                   Actuator* actuator)
    : cluster_(cluster), victim_(victim), config_(config) {
  SDS_CHECK(victim.valid(), "mitigation needs a valid victim placement");
  const bool needs_spare = config.policy == MitigationPolicy::kMigrateVictim ||
                           config.policy == MitigationPolicy::kQuarantineAttacker;
  SDS_CHECK(!needs_spare ||
                (config.spare_host >= 0 &&
                 config.spare_host < cluster.host_count() &&
                 config.spare_host != victim.host),
            "spare host must exist and differ from the victim's host");
  SDS_CHECK(config.command_timeout > 0, "command timeout must be positive");
  SDS_CHECK(config.max_attempts > 0, "need at least one attempt per action");
  SDS_CHECK(config.backoff_base >= 0 &&
                config.backoff_cap >= config.backoff_base,
            "bad backoff range");
  SDS_CHECK(config.verify_window >= 0, "verify window must be non-negative");
  SDS_CHECK(config.verify_recovery_ratio >= 1.0,
            "recovery ratio below 1 would pass without any recovery");
  if (actuator) {
    actuator_ = actuator;
  } else {
    owned_actuator_ = std::make_unique<Actuator>(cluster);
    actuator_ = owned_actuator_.get();
  }
}

void MitigationEngine::OnAlarm(OwnerId attributed_attacker) {
  if (state_ != MitigationState::kIdle ||
      config_.policy == MitigationPolicy::kNone) {
    return;
  }
  alarm_tick_ = cluster_.now();
  alarm_host_ = victim_.host;
  attacker_ = attributed_attacker;
  // Pin the incident's telemetry to the alarm-time host NOW, before any
  // action can change victim_.host.
  alarm_tel_ = cluster_.machine(alarm_host_).telemetry();
  attacked_access_ = ewma_access_;
  attacked_miss_ = ewma_miss_;
  rolled_back_ = false;

  // Quarantine needs a culprit that is a real co-tenant; anything else
  // falls back to migrating the victim (recorded as such, and audited — a
  // provider reviewing a quarantine policy that keeps migrating instead
  // needs to see WHY each alarm went unattributed).
  fallback_ = config_.policy == MitigationPolicy::kQuarantineAttacker &&
              (attributed_attacker == 0 || attributed_attacker == victim_.id);

  chain_.clear();
  chain_index_ = 0;
  attempts_ = 0;
  backoff_until_ = 0;
  switch (config_.policy) {
    case MitigationPolicy::kQuarantineAttacker:
      if (!fallback_) chain_.push_back(Action::kQuarantine);
      chain_.push_back(Action::kMigrate);
      break;
    case MitigationPolicy::kMigrateVictim:
      chain_.push_back(Action::kMigrate);
      break;
    case MitigationPolicy::kThrottleFallback:
      chain_.push_back(Action::kThrottle);
      break;
    case MitigationPolicy::kNone:
      return;  // unreachable (guarded above)
  }
  if (config_.allow_throttle_fallback && chain_.back() != Action::kThrottle) {
    chain_.push_back(Action::kThrottle);
  }

  Dispatch();
}

void MitigationEngine::OnAlarm(OwnerId attributed_attacker,
                               OwnerId forensic_suspect) {
  const bool primary_unusable =
      attributed_attacker == 0 || attributed_attacker == victim_.id;
  const bool suspect_usable =
      forensic_suspect != 0 && forensic_suspect != victim_.id;
  const bool substitute =
      config_.prefer_forensic_suspect && primary_unusable && suspect_usable;
  const bool will_act =
      state_ == MitigationState::kIdle &&
      config_.policy != MitigationPolicy::kNone;
  OnAlarm(substitute ? forensic_suspect : attributed_attacker);
  // Audited after the fact: alarm_tel_ is pinned inside OnAlarm.
  if (substitute && will_act) {
    AuditStep("forensic_substitution", static_cast<double>(forensic_suspect),
              false);
  }
}

void MitigationEngine::Dispatch() {
  const Action action = chain_[chain_index_];
  if (action == Action::kThrottle) {
    ApplyThrottle();
    return;
  }
  ++stats_.dispatches;
  ++attempts_;
  dispatch_tick_ = cluster_.now();
  if (action == Action::kQuarantine) {
    VmRef attacker;
    attacker.host = alarm_host_;
    attacker.id = attacker_;
    cmd_ = actuator_->SubmitStop(attacker);
  } else {
    cmd_ = actuator_->SubmitMigrate(victim_, config_.spare_host);
  }
  state_ = MitigationState::kDispatched;
  // A zero-latency actuator completes inside Submit; pump so the clean
  // path settles synchronously within OnAlarm, exactly like the one-shot
  // engine did.
  PumpCommand();
}

void MitigationEngine::PumpCommand() {
  if (cmd_ == 0) return;
  const CommandResult& result = actuator_->result(cmd_);
  if (result.status == CommandStatus::kInFlight) {
    if (cluster_.now() - dispatch_tick_ >= config_.command_timeout) {
      ++stats_.timeouts;
      AuditStep("timeout", static_cast<double>(attempts_), true);
      actuator_->Cancel(cmd_);
      cmd_ = 0;
      OnAttemptFailed();
    } else {
      state_ = MitigationState::kInFlight;
    }
    return;
  }
  cmd_ = 0;
  if (result.status == CommandStatus::kSucceeded) {
    ApplySuccess(result);
  } else {
    OnAttemptFailed();
  }
}

void MitigationEngine::OnAttemptFailed() {
  if (attempts_ >= config_.max_attempts) {
    Escalate();
    return;
  }
  const Tick shift = std::min<Tick>(attempts_ - 1, 30);
  const Tick backoff =
      std::min(config_.backoff_base << shift, config_.backoff_cap);
  backoff_until_ = cluster_.now() + backoff;
  ++stats_.retries;
  AuditStep("retry", static_cast<double>(attempts_), false);
  state_ = MitigationState::kInFlight;  // waiting out the backoff
}

void MitigationEngine::Escalate() {
  if (chain_index_ + 1 >= chain_.size() ||
      static_cast<int>(stats_.escalations) >= config_.max_escalation_rounds) {
    Fail();
    return;
  }
  ++chain_index_;
  ++stats_.escalations;
  attempts_ = 0;
  backoff_until_ = 0;
  AuditStep("escalate", static_cast<double>(chain_index_), true);
  Dispatch();
}

void MitigationEngine::Fail() {
  state_ = MitigationState::kFailed;
  AuditStep("exhausted", static_cast<double>(stats_.dispatches), true);
}

void MitigationEngine::ApplySuccess(const CommandResult& result) {
  const Action action = chain_[chain_index_];
  if (action == Action::kMigrate) {
    victim_ = result.placement;
    applied_ = MitigationPolicy::kMigrateVictim;
  } else {
    applied_ = MitigationPolicy::kQuarantineAttacker;
  }
  if (!mitigated_) {
    mitigated_ = true;
    mitigation_tick_ = cluster_.now();
  }
  EmitMitigationRecord();
  if (config_.verify_window > 0) {
    BeginVerify();
  } else {
    Settle();
  }
}

void MitigationEngine::ApplyThrottle() {
  if (attacker_ != 0 && attacker_ != victim_.id) {
    cluster_.hypervisor(alarm_host_).ThrottleVm(attacker_,
                                                config_.throttle_ticks);
  } else {
    cluster_.hypervisor(victim_.host)
        .ThrottleAllExcept(victim_.id, config_.throttle_ticks);
  }
  applied_ = MitigationPolicy::kThrottleFallback;
  if (!mitigated_) {
    mitigated_ = true;
    mitigation_tick_ = cluster_.now();
  }
  EmitMitigationRecord();
  // The throttle acts immediately and cannot bounce; verifying it would
  // leave nowhere to escalate.
  Settle();
}

void MitigationEngine::Settle() {
  state_ = MitigationState::kSettled;
  settled_tick_ = cluster_.now();
}

void MitigationEngine::BeginVerify() {
  state_ = MitigationState::kVerifying;
  verify_access_ = 0.0;
  verify_miss_ = 0.0;
  verify_ticks_ = 0;
  rate_primed_ = false;  // rebaseline at the (possibly new) placement
}

void MitigationEngine::EvaluateVerify() {
  const double window = static_cast<double>(config_.verify_window);
  const double mean_access = verify_access_ / window;
  const double mean_miss = verify_miss_ / window;
  const double ratio = config_.verify_recovery_ratio;
  const bool recovered = mean_access >= ratio * attacked_access_ ||
                         mean_miss * ratio <= attacked_miss_;
  if (recovered) {
    AuditStep("verify-pass", mean_access, false);
    Settle();
  } else {
    ++stats_.verify_failures;
    AuditStep("verify-fail", mean_access, true);
    Escalate();
  }
}

void MitigationEngine::OnRetraction() {
  if (!config_.rollback_on_retraction || rolling_back_ || rolled_back_) return;
  if (state_ == MitigationState::kIdle || state_ == MitigationState::kFailed) {
    return;
  }
  if (cmd_ != 0) {
    actuator_->Cancel(cmd_);
    cmd_ = 0;
  }
  if (!mitigated_) {
    // Nothing applied yet: abandon the response and re-arm.
    ++stats_.rollbacks;
    rolled_back_ = true;
    AuditStep("rollback", 0.0, false);
    state_ = MitigationState::kIdle;
    return;
  }
  // The detector withdrew the alarm mid-verification: the response is
  // complete as far as actuation goes.
  if (state_ == MitigationState::kVerifying) Settle();
  switch (applied_) {
    case MitigationPolicy::kQuarantineAttacker: {
      VmRef attacker;
      attacker.host = alarm_host_;
      attacker.id = attacker_;
      cmd_ = actuator_->SubmitResume(attacker);
      break;
    }
    case MitigationPolicy::kMigrateVictim:
      cmd_ = actuator_->SubmitMigrate(victim_, alarm_host_);
      break;
    default:
      // A throttle expires on its own; nothing to undo.
      return;
  }
  rolling_back_ = true;
  dispatch_tick_ = cluster_.now();
  PumpRollback();
}

void MitigationEngine::PumpRollback() {
  if (cmd_ == 0) return;
  const CommandResult& result = actuator_->result(cmd_);
  if (result.status == CommandStatus::kInFlight) {
    if (cluster_.now() - dispatch_tick_ >= config_.command_timeout) {
      actuator_->Cancel(cmd_);
      cmd_ = 0;
      rolling_back_ = false;
      ++stats_.rollback_failures;
      AuditStep("rollback-fail", 0.0, true);
    }
    return;
  }
  cmd_ = 0;
  rolling_back_ = false;
  if (result.status == CommandStatus::kSucceeded) {
    if (result.op == ActuationOp::kMigrate) victim_ = result.placement;
    ++stats_.rollbacks;
    rolled_back_ = true;
    AuditStep("rollback", static_cast<double>(result.target.id), false);
  } else {
    ++stats_.rollback_failures;
    AuditStep("rollback-fail", static_cast<double>(result.error), true);
  }
}

void MitigationEngine::OnTick() {
  actuator_->OnTick();
  TrackRates();
  if (rolling_back_) {
    PumpRollback();
    return;
  }
  switch (state_) {
    case MitigationState::kDispatched:
    case MitigationState::kInFlight:
      if (cmd_ != 0) {
        PumpCommand();
      } else if (cluster_.now() >= backoff_until_) {
        Dispatch();
      }
      break;
    default:
      break;
  }
}

void MitigationEngine::TrackRates() {
  const sim::OwnerCounters& counters = cluster_.counters(victim_);
  const bool moved = rate_place_.host != victim_.host ||
                     rate_place_.id != victim_.id;
  if (rate_primed_ && !moved) {
    const double da =
        static_cast<double>(counters.llc_accesses - last_access_);
    const double dm = static_cast<double>(counters.llc_misses - last_miss_);
    if (ewma_primed_) {
      ewma_access_ += kRateAlpha * (da - ewma_access_);
      ewma_miss_ += kRateAlpha * (dm - ewma_miss_);
    } else {
      ewma_access_ = da;
      ewma_miss_ = dm;
      ewma_primed_ = true;
    }
    if (state_ == MitigationState::kVerifying) {
      verify_access_ += da;
      verify_miss_ += dm;
      if (++verify_ticks_ >= config_.verify_window) EvaluateVerify();
    }
  }
  last_access_ = counters.llc_accesses;
  last_miss_ = counters.llc_misses;
  rate_place_ = victim_;
  rate_primed_ = true;
}

void MitigationEngine::EmitMitigationRecord() {
  if (!alarm_tel_) return;
  const Tick now = cluster_.now();
  if (alarm_tel_->tracer().enabled(tel::Layer::kEval)) {
    alarm_tel_->tracer().Emit(
        tel::MakeEvent(now, tel::Layer::kEval,
                       fallback_ ? "mitigation_fallback"
                                 : "mitigation_applied",
                       victim_.id)
            .Str("policy", MitigationPolicyName(applied_))
            .Num("attributed_attacker", static_cast<double>(attacker_)));
  }
  tel::AuditRecord r;
  r.tick = now;
  r.detector = "MitigationEngine";
  r.check = "mitigation";
  r.channel = MitigationPolicyName(applied_);
  r.value = static_cast<double>(attacker_);
  r.violation = fallback_;
  r.alarm = true;
  alarm_tel_->audit().Append(r);
}

void MitigationEngine::AuditStep(const char* name, double value,
                                 bool violation) {
  if (!alarm_tel_) return;
  const Tick now = cluster_.now();
  if (alarm_tel_->tracer().enabled(tel::Layer::kEval)) {
    alarm_tel_->tracer().Emit(
        tel::MakeEvent(now, tel::Layer::kEval, name, victim_.id)
            .Str("state", MitigationStateName(state_))
            .Num("value", value));
  }
  tel::AuditRecord r;
  r.tick = now;
  r.detector = "MitigationEngine";
  r.check = "actuation";
  r.channel = name;
  r.value = value;
  r.violation = violation;
  r.alarm = false;
  alarm_tel_->audit().Append(r);
}

}  // namespace sds::cluster
