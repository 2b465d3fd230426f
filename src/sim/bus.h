// Shared memory-bus model.
//
// Intel's ring bus and the memory-controller buses are shared by every core
// in the socket (paper Section 2.1). We model the aggregate as a per-tick
// transaction budget: every LLC access consumes slots, an LLC miss consumes
// extra slots for the DRAM transfer, and an atomic locked operation consumes
// an exclusive lock window that is an order of magnitude more expensive —
// which is precisely the asymmetry the atomic bus locking attack exploits
// (Section 2.2). When the budget is exhausted mid-tick, remaining operations
// stall until the next tick: victims complete fewer accesses, and AccessNum
// drops emerge from the mechanism.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/attribution.h"

namespace sds::sim {

struct BusConfig {
  // Transaction slots available per tick (aggregate bus bandwidth).
  std::uint32_t slots_per_tick = 12000;
  // Slots consumed by an LLC access (hit).
  std::uint32_t access_slots = 1;
  // Additional slots consumed on an LLC miss (DRAM transfer).
  std::uint32_t miss_extra_slots = 3;
  // Slots consumed by one atomic locked operation: the lock quiesces every
  // bus in the socket for the duration of the exotic atomic.
  std::uint32_t atomic_lock_slots = 40;
};

struct BusStats {
  std::uint64_t slots_consumed = 0;
  std::uint64_t atomic_locks = 0;
  std::uint64_t stalled_requests = 0;
  // Ticks in which the budget ran out before all requests were served.
  std::uint64_t saturated_ticks = 0;
};

class MemoryBus {
 public:
  explicit MemoryBus(const BusConfig& config)
      : config_(config), remaining_(config.slots_per_tick) {}

  // Starts a new tick, refilling the slot budget.
  void BeginTick() {
    remaining_ = config_.slots_per_tick;
    saturation_recorded_ = false;
  }

  // Attempts to reserve `slots` in the current tick on behalf of `owner`.
  // On failure nothing is consumed and the request counts as stalled; with
  // a ledger attached, success records the owner's occupancy and failure
  // charges the queue delay to the owners that consumed the budget.
  bool TryConsume(OwnerId owner, std::uint32_t slots) {
    if (slots > remaining_) {
      ++stats_.stalled_requests;
      if (!saturation_recorded_) {
        ++stats_.saturated_ticks;
        saturation_recorded_ = true;
      }
      if (ledger_ != nullptr) ledger_->RecordBusStall(owner);
      return false;
    }
    remaining_ -= slots;
    stats_.slots_consumed += slots;
    if (ledger_ != nullptr) ledger_->RecordBusOccupancy(owner, slots);
    return true;
  }

  // Attempts to reserve an atomic lock window for `owner`.
  bool TryAtomicLock(OwnerId owner) {
    if (!TryConsume(owner, config_.atomic_lock_slots)) return false;
    ++stats_.atomic_locks;
    return true;
  }

  // Attaches the interference attribution ledger (nullptr detaches). The
  // only cost on the detached path is one null test per reservation.
  void AttachLedger(AttributionLedger* ledger) { ledger_ = ledger; }

  std::uint32_t slots_remaining() const { return remaining_; }
  const BusConfig& config() const { return config_; }
  const BusStats& stats() const { return stats_; }

 private:
  BusConfig config_;
  std::uint32_t remaining_ = 0;
  bool saturation_recorded_ = false;
  BusStats stats_;
  AttributionLedger* ledger_ = nullptr;  // not owned; see AttachLedger
};

}  // namespace sds::sim
