// Chaos-restart sweep for the streaming detection service (DESIGN.md §14,
// EXPERIMENTS.md).
//
// Builds one deterministic multi-tenant feed — clean tenants, attacked
// tenants that shift their counter statistics mid-run, a poison tenant
// spraying insane samples, malformed lines, duplicates, future timestamps,
// and ghost-tenant bursts that overflow the tenant table and the ingest
// queue — then:
//
//   1. REFERENCE: drives an uninterrupted service over the whole feed and
//      records its decision log, alarm sequence and accounting.
//   2. CHAOS: for every crash point in a deterministic fault plan grid
//      (mid-WAL-append at several torn byte fractions, mid-checkpoint,
//      clean-crash-after-append, at several operation ordinals), drives a
//      fresh service until the planned crash kills it, reincarnates the
//      store's surviving bytes into a recovered service, re-drives the SAME
//      feed from the beginning (at-least-once redelivery), and compares.
//
// The pin: every recovered run's decision log, alarm sequence and pinned
// accounting must be BIT-IDENTICAL to the reference. The sweep also emits
// the BENCH_svc curves: WAL records replayed and events redelivered-then-
// deduplicated per crash point (the recovery-cost curve) and the shed rate
// under burst pressure.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "fault/service_plan.h"
#include "svc/service.h"

namespace sds::eval {

// Service config tuned to the sweep's scale: small analyzer windows so
// alarms fire within a ~thousand-tick feed, and tight queue/table bounds so
// the coalesce, shed and eviction paths actually exercise.
svc::SvcConfig ChaosSvcConfig();

struct ServiceChaosConfig {
  svc::SvcConfig svc = ChaosSvcConfig();
  // Clean tenants 0..tenants-1; tenant id `tenants` is the poison tenant;
  // ghost tenants use ids 1000+.
  std::uint32_t tenants = 6;
  Tick ticks = 1200;
  std::uint64_t seed = 42;
  // Attacked tenants shift their access/miss statistics during
  // [attack_start, ticks).
  Tick attack_start = 600;
  double attacked_fraction = 0.34;
  // Poison-input rates, per clean-tenant sample (deterministic hash):
  double malformed_rate = 0.01;
  double duplicate_rate = 0.02;
  double future_rate = 0.004;
  // The poison tenant emits an insane sample every `insane_every` ticks.
  Tick insane_every = 7;
  // Ghost-tenant bursts: every `burst_every` ticks, `burst_tenants` extra
  // tenants emit for `burst_len` ticks (queue pressure + LRU pressure).
  Tick burst_every = 300;
  Tick burst_len = 40;
  std::uint32_t burst_tenants = 12;
  // Crash-point grid: each kind fires at these fractions of the reference
  // run's operation count, each torn kind at these surviving byte
  // fractions.
  std::vector<double> op_fractions = {0.15, 0.5, 0.85};
  std::vector<double> byte_fractions = {0.0, 0.5};
  int threads = 4;
};

struct ChaosPointResult {
  fault::ServiceFaultKind kind = fault::ServiceFaultKind::kCrashMidWalAppend;
  std::uint64_t op_index = 0;
  double byte_fraction = 0.0;
  // The planned crash actually killed the first incarnation.
  bool fired = false;
  Tick crash_tick = -1;
  // Recovery cost, from the second incarnation.
  bool recovered_from_checkpoint = false;
  std::uint64_t replayed_records = 0;
  std::uint64_t skipped_records = 0;
  std::uint64_t redelivered_deduped = 0;
  std::uint64_t recovery_wal_valid_bytes = 0;
  svc::WalScanStop wal_stop = svc::WalScanStop::kCleanEnd;
  // The headline pin.
  bool bit_identical = false;
  std::uint64_t alarms = 0;
  double shed_rate = 0.0;
};

struct ServiceChaosResult {
  // Reference (uninterrupted) run.
  std::uint64_t feed_events = 0;
  std::uint64_t ref_wal_appends = 0;
  std::uint64_t ref_checkpoints = 0;
  std::uint64_t ref_alarms = 0;
  std::uint64_t ref_decisions = 0;
  double ref_shed_rate = 0.0;
  svc::SvcAccounting ref_accounting;
  std::vector<ChaosPointResult> points;
  bool all_bit_identical = false;
  double wall_seconds = 0.0;
};

// Runs the sweep. When `accounting_out` is non-null, one svc_ref line plus
// one svc_recovery line per crash point are written as JSONL — the input of
// the --svc section in tools/trace_inspect.
ServiceChaosResult RunServiceChaosSweep(const ServiceChaosConfig& config,
                                        std::ostream* accounting_out = nullptr);

// BENCH_svc JSON object (one line, no trailing newline).
void WriteServiceChaosJson(const ServiceChaosConfig& config,
                           const ServiceChaosResult& result, std::ostream& os);

}  // namespace sds::eval
