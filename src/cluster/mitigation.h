// Mitigation: the provider response a detection alarm triggers (paper
// Section 6 — "take proper actions (e.g., VM migrations)").
//
// Policies:
//   kMigrateVictim       move the protected VM to a spare host, away from
//                        whatever is attacking it (always possible, but the
//                        attacker can re-co-locate — the paper's argument
//                        for detection over pure migration);
//   kQuarantineAttacker  stop the attributed attacker VM in place (needs an
//                        attribution, e.g. the KStest identification sweep;
//                        falls back to migrating the victim when the alarm
//                        is unattributed);
//   kThrottleFallback    throttle the contention source directly through
//                        the hypervisor. Crude (it taxes every co-tenant
//                        when unattributed) but infallible — it needs no
//                        placement, no spare host, no migration — which is
//                        why it terminates every escalation chain.
//
// The engine is a ticked state machine, not a one-shot:
//
//   idle -> dispatched -> in_flight -> verifying -> settled
//                 ^            |            |
//                 |  retry w/  |  escalate  |          (chain exhausted)
//                 +- backoff --+<-----------+--------------> failed
//
// Commands route through cluster::Actuator, whose ActuationFaultPlan may
// lose, abort, or bounce them. Each attempt has a timeout; failures retry
// with capped exponential backoff; exhausted attempts escalate along
// quarantine -> migrate -> throttle. With verification enabled the engine
// watches the victim's access/miss rates after an action applies and
// escalates when contention persists; with rollback enabled a detector
// retraction (false alarm) undoes the most recent applied action.
//
// Compatibility: constructed through the legacy (policy, spare_host)
// signature — or with a default MitigationConfig and a fault-free actuator —
// the engine settles synchronously inside OnAlarm and emits exactly the
// pre-actuation-plane telemetry (one "mitigation" audit record, one
// "mitigation_applied"/"mitigation_fallback" event). The actuation golden
// test pins this bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/actuator.h"
#include "cluster/cluster.h"
#include "common/types.h"

namespace sds::telemetry {
class Telemetry;
}  // namespace sds::telemetry

namespace sds::cluster {

enum class MitigationPolicy : std::uint8_t {
  kNone,
  kMigrateVictim,
  kQuarantineAttacker,
  kThrottleFallback,
};

const char* MitigationPolicyName(MitigationPolicy policy);

enum class MitigationState : std::uint8_t {
  kIdle,        // no alarm yet (or alarm retracted before any action)
  kDispatched,  // command submitted this tick, result not yet seen
  kInFlight,    // command outstanding, or waiting out a retry backoff
  kVerifying,   // action applied; watching the victim's rates for efficacy
  kSettled,     // mitigation complete (and verified, when enabled)
  kFailed,      // every attempt, escalation and fallback exhausted
};

const char* MitigationStateName(MitigationState state);

struct MitigationConfig {
  MitigationPolicy policy = MitigationPolicy::kNone;
  // Receives the victim under migrate (and under quarantine's unattributed
  // fallback). Unused by kNone / kThrottleFallback.
  int spare_host = -1;

  // Ticks an outstanding command may stay unacknowledged before the engine
  // cancels it and counts the attempt as failed (catches lost commands).
  Tick command_timeout = 64;
  // Submissions per action before escalating to the next one.
  int max_attempts = 5;
  // Retry backoff: min(backoff_base << (attempt - 1), backoff_cap) ticks.
  Tick backoff_base = 8;
  Tick backoff_cap = 128;

  // Duration of the hypervisor throttle when the chain falls back to it.
  Tick throttle_ticks = 4000;
  // Whether the escalation chain ends in kThrottleFallback. Disabling it
  // makes chain exhaustion terminal (state kFailed) — useful for measuring
  // how often the fallible actions alone suffice.
  bool allow_throttle_fallback = true;
  // Escalations allowed before giving up (chain steps, not retries).
  int max_escalation_rounds = 2;

  // Efficacy verification: after an action applies, watch the victim's
  // access/miss rates for this many ticks and escalate if they have not
  // recovered. 0 (default) settles immediately on command success.
  Tick verify_window = 0;
  // Recovery test: mean access rate over the window must reach ratio x the
  // attacked-rate snapshot, OR the mean miss rate must drop below the
  // attacked rate / ratio. (Covers both throughput-crushing bus locks and
  // miss-inflating LLC cleansing.)
  double verify_recovery_ratio = 1.2;

  // Undo the most recent applied action when the detector retracts the
  // alarm (OnRetraction): un-quarantine via resume, or migrate the victim
  // back. Off by default.
  bool rollback_on_retraction = false;

  // Let the two-argument OnAlarm substitute the forensic prime suspect for
  // an unusable primary attribution (unattributed, or the victim itself)
  // before the quarantine chain is chosen. Off by default: an unattributed
  // alarm then falls back to migrating the victim as before.
  bool prefer_forensic_suspect = false;
};

struct MitigationStats {
  std::uint64_t dispatches = 0;        // command submissions, incl. retries
  std::uint64_t retries = 0;           // re-dispatches after failure/timeout
  std::uint64_t timeouts = 0;          // attempts cancelled for no ack
  std::uint64_t escalations = 0;       // chain steps taken
  std::uint64_t verify_failures = 0;   // efficacy windows that failed
  std::uint64_t rollbacks = 0;         // retractions acted on
  std::uint64_t rollback_failures = 0; // rollback commands that never landed
};

class MitigationEngine {
 public:
  // Legacy signature: default robustness knobs and an owned fault-free
  // actuator — single-shot behavior, bit-identical telemetry.
  MitigationEngine(Cluster& cluster, const VmRef& victim,
                   MitigationPolicy policy, int spare_host);

  // Full control. `actuator` may be shared with other engines / the chaos
  // harness; when nullptr the engine owns a fault-free one.
  MitigationEngine(Cluster& cluster, const VmRef& victim,
                   const MitigationConfig& config,
                   Actuator* actuator = nullptr);

  // Reports an alarm at the current cluster time. `attributed_attacker` is
  // the culprit VM if the detector identified one (0 = unattributed; only
  // meaningful on the victim's host). Acts only from kIdle: repeated alarms
  // during an active response are absorbed, but a fresh alarm after a
  // rollback re-arms the engine.
  void OnAlarm(OwnerId attributed_attacker);

  // Alarm with a second opinion: `forensic_suspect` is the attribution
  // ledger's prime suspect (detect::ForensicReport::prime_suspect; 0 when
  // the report went unattributed). With prefer_forensic_suspect set it
  // stands in for an unusable primary attribution, so a quarantine policy
  // can act on hardware evidence when the KStest identification sweep came
  // back empty. The substitution is audited (channel
  // "forensic_substitution").
  void OnAlarm(OwnerId attributed_attacker, OwnerId forensic_suspect);

  // Reports that the detector withdrew the alarm (falling edge). With
  // rollback_on_retraction: cancels an in-flight response outright, or
  // undoes the most recent applied action. Otherwise a no-op.
  void OnRetraction();

  // Advances the state machine one tick: pumps the actuator, tracks the
  // victim's rate EWMA, applies timeouts/backoff/escalation, and steps the
  // verification window. Call once per cluster tick.
  void OnTick();

  bool mitigated() const { return mitigated_; }
  Tick mitigation_tick() const { return mitigation_tick_; }
  // The victim's current placement (changes when migrated).
  const VmRef& victim() const { return victim_; }
  MitigationPolicy applied_policy() const { return applied_; }

  MitigationState state() const { return state_; }
  Tick settled_tick() const { return settled_tick_; }
  bool rolled_back() const { return rolled_back_; }
  const MitigationStats& stats() const { return stats_; }
  Actuator& actuator() { return *actuator_; }

 private:
  enum class Action : std::uint8_t { kQuarantine, kMigrate, kThrottle };

  void Dispatch();
  void PumpCommand();
  void PumpRollback();
  void OnAttemptFailed();
  void Escalate();
  void Fail();
  void ApplySuccess(const CommandResult& result);
  void ApplyThrottle();
  void Settle();
  void BeginVerify();
  void EvaluateVerify();
  void TrackRates();
  // The legacy-shaped "mitigation" audit record + applied/fallback event.
  void EmitMitigationRecord();
  // An "actuation" audit record (+ same-named kEval event) for a state-
  // machine step that deviates from the clean path. `name` must be a string
  // literal (the tracer retains the pointer).
  void AuditStep(const char* name, double value, bool violation);

  Cluster& cluster_;
  VmRef victim_;
  MitigationConfig config_;
  std::unique_ptr<Actuator> owned_actuator_;
  Actuator* actuator_ = nullptr;

  // Telemetry handle pinned ONCE at alarm time to the victim's alarm-time
  // host. Every record of the incident lands there, even after a migration
  // moved the victim (and even when hosts carry distinct telemetry) — the
  // old code re-resolved after mutating victim_ and audited the wrong host.
  telemetry::Telemetry* alarm_tel_ = nullptr;

  MitigationState state_ = MitigationState::kIdle;
  std::vector<Action> chain_;
  std::size_t chain_index_ = 0;
  bool fallback_ = false;  // quarantine alarm went unattributed
  OwnerId attacker_ = 0;
  int alarm_host_ = -1;
  Tick alarm_tick_ = kInvalidTick;

  CommandId cmd_ = 0;
  Tick dispatch_tick_ = kInvalidTick;
  Tick backoff_until_ = 0;
  int attempts_ = 0;

  bool mitigated_ = false;
  Tick mitigation_tick_ = kInvalidTick;
  Tick settled_tick_ = kInvalidTick;
  MitigationPolicy applied_ = MitigationPolicy::kNone;

  bool rolling_back_ = false;
  bool rolled_back_ = false;

  // Victim rate tracking (per-tick LLC access/miss deltas). The EWMA feeds
  // the attacked-rate snapshot at alarm time; the verification window uses
  // a plain mean at the post-action placement.
  VmRef rate_place_;
  bool rate_primed_ = false;
  std::uint64_t last_access_ = 0;
  std::uint64_t last_miss_ = 0;
  double ewma_access_ = 0.0;
  double ewma_miss_ = 0.0;
  bool ewma_primed_ = false;
  double attacked_access_ = 0.0;
  double attacked_miss_ = 0.0;
  double verify_access_ = 0.0;
  double verify_miss_ = 0.0;
  Tick verify_ticks_ = 0;

  MitigationStats stats_;
};

}  // namespace sds::cluster
