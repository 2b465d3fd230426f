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
  for (const OwnerCounters& c : counters_) {
    accesses += c.llc_accesses;
    misses += c.llc_misses;
    atomic_ops += c.atomic_ops;
    stalls += c.bus_stalls;
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
  bus_.BeginTick();
  dram_.BeginTick();
  if (ledger_) ledger_->RecordTickStart();
  saturation_traced_ = false;
  ++now_;
  if (instrumented_) [[unlikely]] {
    t_ticks_->Add();
    SyncTelemetry();
  }
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

void Machine::InstrumentMiss(OwnerId owner, LineAddr addr, bool evicted_valid,
                             OwnerId evicted_owner, double latency) {
  t_dram_latency_->Observe(latency);
  if (evicted_valid && evicted_owner != owner) {
    t_cross_evictions_->Add();
    tel::Telemetry* t = config_.telemetry;
    if (t->tracer().enabled(tel::Layer::kSimCache)) {
      t->tracer().Emit(tel::MakeEvent(now_, tel::Layer::kSimCache,
                                      "cross_owner_eviction", owner)
                           .Num("victim", evicted_owner)
                           .Num("set", cache_.SetIndexOf(addr)));
    }
  }
}

void Machine::InstrumentAtomic(OwnerId owner) {
  tel::Telemetry* t = config_.telemetry;
  if (t->tracer().enabled(tel::Layer::kSimBus)) {
    t->tracer().Emit(tel::MakeEvent(now_, tel::Layer::kSimBus,
                                    "lock_window_open", owner)
                         .Num("slots", config_.bus.atomic_lock_slots));
  }
}

}  // namespace sds::sim
