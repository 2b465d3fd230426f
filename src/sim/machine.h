// The simulated physical machine: one socket whose cores share an LLC, a
// memory bus and a DRAM channel, with per-owner hardware counters — the
// substrate on which VMs, attacks and the PCM sampler run.
//
// The counter registers mirror what Intel PCM exposes: cumulative LLC access
// and LLC miss counts per owner. The PCM sampler (src/pcm) reads deltas of
// these registers every T_PCM tick, producing exactly the AccessNum / MissNum
// series the paper's detectors consume.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/attribution.h"
#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/dram.h"

namespace sds::telemetry {
class Telemetry;
class Counter;
class Histogram;
}  // namespace sds::telemetry

namespace sds::sim {

struct MachineConfig {
  CacheConfig cache;
  BusConfig bus;
  DramConfig dram;
  // Highest owner id (exclusive) the counter file is sized for.
  OwnerId max_owners = 32;
  // Maintain the per-resource interference attribution ledger
  // (sim/attribution.h): inter-VM eviction matrix from the cache, per-owner
  // occupancy and stall charges from the bus. Off (the default) the ledger
  // is never allocated and every hook is a null test — counter streams and
  // outcomes are bit-identical to the pre-ledger simulator.
  bool attribution = false;
  // Optional observability handle (not owned; must outlive the machine).
  // Everything running on this machine — hypervisor, samplers, detectors —
  // shares this one handle, so wiring a run for telemetry is this single
  // assignment. nullptr (the default) disables all instrumentation.
  telemetry::Telemetry* telemetry = nullptr;
};

struct OwnerCounters {
  std::uint64_t llc_accesses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t atomic_ops = 0;
  // Requests that could not be served because the bus budget was exhausted.
  std::uint64_t bus_stalls = 0;
  // Accumulated DRAM latency attributed to this owner (virtual ns).
  double dram_latency_ns = 0.0;
};

enum class AccessOutcome : std::uint8_t {
  kHit,
  kMiss,
  // The bus had no remaining bandwidth this tick; the operation did not
  // execute and should be retried next tick.
  kStalled,
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  // Advances the machine to the next tick, refilling the bus budget.
  void BeginTick();
  Tick now() const { return now_; }

  // A normal (non-atomic) memory load by `owner`.
  AccessOutcome Access(OwnerId owner, LineAddr addr) {
    SDS_DCHECK(owner < counters_.size(), "owner out of range");
    if (!bus_.TryConsume(owner, config_.bus.access_slots)) {
      RecordStall(owner);
      return AccessOutcome::kStalled;
    }
    return FinishAccess(owner, addr);
  }

  // An atomic locked operation: reserves an exclusive bus lock window and
  // then performs the access. This is the primitive the bus locking attack
  // issues in a tight loop.
  AccessOutcome AtomicAccess(OwnerId owner, LineAddr addr) {
    SDS_DCHECK(owner < counters_.size(), "owner out of range");
    if (!bus_.TryAtomicLock(owner)) {
      RecordStall(owner);
      return AccessOutcome::kStalled;
    }
    ++counters_[owner].atomic_ops;
    if (instrumented_) [[unlikely]] InstrumentAtomic(owner);
    return FinishAccess(owner, addr);
  }

  const OwnerCounters& counters(OwnerId owner) const {
    SDS_DCHECK(owner < counters_.size(), "owner out of range");
    return counters_[owner];
  }

  // The interference attribution ledger (nullptr unless
  // MachineConfig::attribution was set). Read-only outside the sim layer.
  const AttributionLedger* attribution() const { return ledger_.get(); }

  LastLevelCache& cache() { return cache_; }
  const LastLevelCache& cache() const { return cache_; }
  MemoryBus& bus() { return bus_; }
  const MemoryBus& bus() const { return bus_; }
  const Dram& dram() const { return dram_; }
  const MachineConfig& config() const { return config_; }

  // The shared observability handle (nullptr when detached).
  telemetry::Telemetry* telemetry() const { return config_.telemetry; }

 private:
  // The per-access chain (Access/AtomicAccess -> FinishAccess) is inline so
  // an op costs no call across translation units; only the instrumentation
  // branches below leave it.
  AccessOutcome FinishAccess(OwnerId owner, LineAddr addr) {
    OwnerCounters& ctr = counters_[owner];
    ++ctr.llc_accesses;
    const CacheAccessResult r = cache_.Access(owner, addr);
    if (r.hit) return AccessOutcome::kHit;

    ++ctr.llc_misses;
    // The DRAM transfer needs extra bus slots. If the budget runs dry the
    // fill still completes (the hardware would simply slip into the next
    // interval), so the failure only registers as bus pressure.
    bus_.TryConsume(owner, config_.bus.miss_extra_slots);
    const double latency = dram_.Read();
    ctr.dram_latency_ns += latency;
    if (instrumented_) [[unlikely]] {
      InstrumentMiss(owner, addr, r.evicted_valid, r.evicted_owner, latency);
    }
    return AccessOutcome::kMiss;
  }

  void RecordStall(OwnerId owner) {
    ++counters_[owner].bus_stalls;
    if (instrumented_) [[unlikely]] InstrumentStall(owner);
  }

  // Cold instrumentation paths, out of line so the access fast path stays
  // compact. Only ever called when instrumented_ is true. Counter-style
  // metrics (hits/misses/stalls/atomic ops) are NOT updated per access;
  // SyncTelemetry folds the per-owner counter deltas into the registry once
  // per tick, so the uninstrumented per-access cost is zero and the
  // instrumented cost is one saturating pass over the counter file per tick.
  void SyncTelemetry();
  void InstrumentMiss(OwnerId owner, LineAddr addr, bool evicted_valid,
                      OwnerId evicted_owner, double latency);
  void InstrumentAtomic(OwnerId owner);
  void InstrumentStall(OwnerId owner);

  MachineConfig config_;
  LastLevelCache cache_;
  MemoryBus bus_;
  Dram dram_;
  std::vector<OwnerCounters> counters_;
  // Allocated only when config_.attribution is set; cache_ and bus_ hold
  // raw observer pointers to it.
  std::unique_ptr<AttributionLedger> ledger_;
  Tick now_ = 0;

  // True when config_.telemetry is attached; the ONLY telemetry cost on the
  // hot path is testing this flag.
  bool instrumented_ = false;
  // First bus saturation already traced this tick (one event per tick).
  bool saturation_traced_ = false;

  // Instrument slots, resolved once at construction (nullptr when detached).
  telemetry::Counter* t_ticks_ = nullptr;
  telemetry::Counter* t_hits_ = nullptr;
  telemetry::Counter* t_misses_ = nullptr;
  telemetry::Counter* t_cross_evictions_ = nullptr;
  telemetry::Counter* t_atomic_locks_ = nullptr;
  telemetry::Counter* t_stalls_ = nullptr;
  telemetry::Counter* t_saturated_ticks_ = nullptr;
  telemetry::Counter* t_dram_reads_ = nullptr;
  telemetry::Histogram* t_dram_latency_ = nullptr;
  // Totals already folded into the registry by SyncTelemetry.
  std::uint64_t synced_accesses_ = 0;
  std::uint64_t synced_misses_ = 0;
  std::uint64_t synced_atomic_ops_ = 0;
  std::uint64_t synced_stalls_ = 0;
};

}  // namespace sds::sim
