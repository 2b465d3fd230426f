#include "sim/machine.h"

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::sim {

namespace tel = sds::telemetry;

Machine::Machine(const MachineConfig& config)
    : config_(config),
      cache_(config.cache),
      bus_(config.bus),
      dram_(config.dram),
      counters_(config.max_owners) {
  SDS_CHECK(config_.max_owners <= LastLevelCache::kMaxOwnerTag + 1,
            "max_owners must be <= 256: the LLC stores one-byte owner tags");
  if (config_.attribution) {
    ledger_ = std::make_unique<AttributionLedger>(config_.max_owners);
    cache_.AttachLedger(ledger_.get());
    bus_.AttachLedger(ledger_.get());
  }
  if (tel::Telemetry* t = config_.telemetry) {
    instrumented_ = true;
    synced_owner_atomics_.assign(config_.max_owners, 0);
    tick_cross_evictions_.assign(config_.max_owners, 0);
    tel::MetricsRegistry& m = t->metrics();
    t_ticks_ = m.GetCounter("sim.machine.ticks");
    t_hits_ = m.GetCounter("sim.cache.hits");
    t_misses_ = m.GetCounter("sim.cache.misses");
    t_cross_evictions_ = m.GetCounter("sim.cache.cross_owner_evictions");
    t_atomic_locks_ = m.GetCounter("sim.bus.atomic_locks");
    t_stalls_ = m.GetCounter("sim.bus.stalls");
    t_saturated_ticks_ = m.GetCounter("sim.bus.saturated_ticks");
    t_dram_reads_ = m.GetCounter("sim.dram.reads");
    t_dram_latency_ =
        m.GetHistogram("sim.dram.latency_ns", tel::LatencyNsBounds());
  }
}

Machine::~Machine() {
  // Fold the final (partial) tick's activity into the registry so metrics
  // read after a run are exact.
  if (instrumented_) SyncTelemetry();
}

void Machine::SyncTelemetry() {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t stalls = 0;
  tel::EventTracer& tracer = config_.telemetry->tracer();
  const bool trace_locks = tracer.enabled(tel::Layer::kSimBus);
  const bool trace_evictions = tracer.enabled(tel::Layer::kSimCache);
  for (OwnerId owner = 0; owner < counters_.size(); ++owner) {
    const OwnerCounters& c = counters_[owner];
    accesses += c.llc_accesses;
    misses += c.llc_misses;
    atomic_ops += c.atomic_ops;
    stalls += c.bus_stalls;
    const std::uint64_t locks = c.atomic_ops - synced_owner_atomics_[owner];
    if (locks > 0) {
      synced_owner_atomics_[owner] = c.atomic_ops;
      if (trace_locks) {
        tracer.Emit(tel::MakeEvent(now_, tel::Layer::kSimBus,
                                   "lock_window_open", owner)
                        .Num("count", static_cast<double>(locks)));
      }
    }
    std::uint64_t& evictions = tick_cross_evictions_[owner];
    if (evictions > 0) {
      if (trace_evictions) {
        tracer.Emit(tel::MakeEvent(now_, tel::Layer::kSimCache,
                                   "cross_owner_eviction", owner)
                        .Num("count", static_cast<double>(evictions)));
      }
      evictions = 0;
    }
  }
  t_hits_->Add((accesses - misses) - (synced_accesses_ - synced_misses_));
  t_misses_->Add(misses - synced_misses_);
  t_dram_reads_->Add(misses - synced_misses_);
  t_atomic_locks_->Add(atomic_ops - synced_atomic_ops_);
  t_stalls_->Add(stalls - synced_stalls_);
  synced_accesses_ = accesses;
  synced_misses_ = misses;
  synced_atomic_ops_ = atomic_ops;
  synced_stalls_ = stalls;
}

void Machine::BeginTick() {
  // Close the ending tick (a no-op pass after EndTick) while now_ still
  // names it, so the coalesced per-op events carry the tick their ops ran in.
  if (instrumented_) [[unlikely]] {
    t_ticks_->Add();
    SyncTelemetry();
  }
  bus_.BeginTick();
  dram_.BeginTick();
  if (ledger_) ledger_->RecordTickStart();
  saturation_traced_ = false;
  ++now_;
}

void Machine::InstrumentStall(OwnerId owner) {
  if (saturation_traced_) return;
  saturation_traced_ = true;
  t_saturated_ticks_->Add();
  tel::Telemetry* t = config_.telemetry;
  if (t->tracer().enabled(tel::Layer::kSimBus)) {
    t->tracer().Emit(
        tel::MakeEvent(now_, tel::Layer::kSimBus, "bus_saturated", owner)
            .Num("slots_remaining", bus_.slots_remaining()));
  }
}

void Machine::InstrumentMiss(OwnerId owner, bool evicted_valid,
                             OwnerId evicted_owner, double latency) {
  t_dram_latency_->Observe(latency);
  if (evicted_valid && evicted_owner != owner) {
    t_cross_evictions_->Add();
    ++tick_cross_evictions_[owner];  // traced by SyncTelemetry
  }
}

}  // namespace sds::sim
