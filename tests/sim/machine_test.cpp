#include "sim/machine.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/telemetry.h"

namespace sds::sim {
namespace {

MachineConfig SmallMachine() {
  MachineConfig c;
  c.cache.sets = 16;
  c.cache.ways = 4;
  c.bus.slots_per_tick = 200;
  c.bus.access_slots = 1;
  c.bus.miss_extra_slots = 3;
  c.bus.atomic_lock_slots = 40;
  c.max_owners = 8;
  return c;
}

TEST(MachineTest, CountersStartAtZero) {
  Machine m(SmallMachine());
  EXPECT_EQ(m.counters(1).llc_accesses, 0u);
  EXPECT_EQ(m.counters(1).llc_misses, 0u);
}

TEST(MachineTest, AccessUpdatesCounters) {
  Machine m(SmallMachine());
  m.BeginTick();
  EXPECT_EQ(m.Access(1, 0x10), AccessOutcome::kMiss);
  EXPECT_EQ(m.Access(1, 0x10), AccessOutcome::kHit);
  EXPECT_EQ(m.counters(1).llc_accesses, 2u);
  EXPECT_EQ(m.counters(1).llc_misses, 1u);
}

TEST(MachineTest, CountersArePerOwner) {
  Machine m(SmallMachine());
  m.BeginTick();
  m.Access(1, 1);
  m.Access(2, 2);
  m.Access(2, 3);
  EXPECT_EQ(m.counters(1).llc_accesses, 1u);
  EXPECT_EQ(m.counters(2).llc_accesses, 2u);
}

TEST(MachineTest, MissConsumesDramAndExtraSlots) {
  Machine m(SmallMachine());
  m.BeginTick();
  m.Access(1, 5);
  // 1 access slot + 3 miss extra.
  EXPECT_EQ(m.bus().slots_remaining(), 196u);
  EXPECT_EQ(m.dram().stats().reads, 1u);
  EXPECT_GT(m.counters(1).dram_latency_ns, 0.0);
}

TEST(MachineTest, HitConsumesOnlyAccessSlot) {
  Machine m(SmallMachine());
  m.BeginTick();
  m.Access(1, 5);
  const auto before = m.bus().slots_remaining();
  m.Access(1, 5);
  EXPECT_EQ(m.bus().slots_remaining(), before - 1);
}

TEST(MachineTest, StalledAccessDoesNotTouchCache) {
  Machine m(SmallMachine());
  m.BeginTick();
  // Drain the bus.
  while (m.bus().TryConsume(0, 1)) {
  }
  EXPECT_EQ(m.Access(1, 77), AccessOutcome::kStalled);
  EXPECT_EQ(m.counters(1).llc_accesses, 0u);
  EXPECT_EQ(m.counters(1).bus_stalls, 1u);
  EXPECT_FALSE(m.cache().Contains(77));
}

TEST(MachineTest, AtomicAccessCountsAtomics) {
  Machine m(SmallMachine());
  m.BeginTick();
  EXPECT_EQ(m.AtomicAccess(1, 9), AccessOutcome::kMiss);
  EXPECT_EQ(m.counters(1).atomic_ops, 1u);
  // Atomic lock window (40) + miss extra (3).
  EXPECT_EQ(m.bus().slots_remaining(), 200u - 43u);
}

TEST(MachineTest, AtomicStallsWhenBusFull) {
  Machine m(SmallMachine());
  m.BeginTick();
  for (int i = 0; i < 4; ++i) m.AtomicAccess(1, static_cast<LineAddr>(i));
  // 4 * 43 = 172 consumed; a 5th atomic (needs 40) stalls.
  EXPECT_EQ(m.AtomicAccess(2, 100), AccessOutcome::kStalled);
  EXPECT_EQ(m.counters(2).bus_stalls, 1u);
  EXPECT_EQ(m.counters(2).atomic_ops, 0u);
}

TEST(MachineTest, TickAdvancesClock) {
  Machine m(SmallMachine());
  EXPECT_EQ(m.now(), 0);
  m.BeginTick();
  m.BeginTick();
  EXPECT_EQ(m.now(), 2);
}

TEST(MachineTest, BusRefillsAcrossTicks) {
  Machine m(SmallMachine());
  m.BeginTick();
  while (m.bus().TryConsume(0, 1)) {
  }
  EXPECT_EQ(m.Access(1, 3), AccessOutcome::kStalled);
  m.BeginTick();
  EXPECT_NE(m.Access(1, 3), AccessOutcome::kStalled);
}

TEST(MachineTest, CrossOwnerEvictionRaisesVictimMisses) {
  // One owner's set-filling accesses evict another owner's resident line,
  // which then misses on its next access — the cleansing mechanism end to
  // end at machine level.
  MachineConfig cfg = SmallMachine();
  cfg.bus.slots_per_tick = 100000;
  Machine m(cfg);
  m.BeginTick();
  m.Access(1, 0);  // victim line in set 0
  EXPECT_EQ(m.Access(1, 0), AccessOutcome::kHit);
  for (std::uint32_t w = 0; w < cfg.cache.ways; ++w) {
    m.Access(2, 1000 * 16 + static_cast<LineAddr>(w) * 16);  // set 0
  }
  EXPECT_EQ(m.Access(1, 0), AccessOutcome::kMiss);
  EXPECT_EQ(m.counters(1).llc_misses, 2u);
}

// The retained lock_window_open / cross_owner_eviction events, one line
// each: "<event> tick=<t> owner=<o> count=<n>".
std::vector<std::string> PerOpEvents(const telemetry::EventTracer& tracer) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < tracer.retained(); ++i) {
    const telemetry::TraceEvent& e = tracer.event(i);
    if (std::strcmp(e.name, "lock_window_open") != 0 &&
        std::strcmp(e.name, "cross_owner_eviction") != 0) {
      continue;
    }
    std::string line = std::string(e.name) + " tick=" +
                       std::to_string(e.tick) +
                       " owner=" + std::to_string(e.owner);
    for (const auto& f : e.nums) {
      if (f.key != nullptr) {
        line += ' ';
        line += f.key;
        line += '=';
        line += std::to_string(static_cast<std::uint64_t>(f.value));
      }
    }
    out.push_back(line);
  }
  return out;
}

TEST(MachineTest, TracesPerOpActivityOncePerOwnerPerTick) {
  telemetry::Telemetry telemetry;
  MachineConfig cfg = SmallMachine();
  cfg.bus.slots_per_tick = 100000;
  cfg.telemetry = &telemetry;
  Machine m(cfg);
  m.BeginTick();
  const Tick t = m.now();
  // Owner 1 fills set 0; owner 2 evicts two of its lines and takes three
  // bus locks (set 1); owner 3 takes five (set 2).
  for (LineAddr w = 0; w < cfg.cache.ways; ++w) m.Access(1, w * 16);
  m.Access(2, 100 * 16);
  m.Access(2, 101 * 16);
  for (int i = 0; i < 3; ++i) m.AtomicAccess(2, 16 + 1);
  for (int i = 0; i < 5; ++i) m.AtomicAccess(3, 16 + 2);
  EXPECT_TRUE(PerOpEvents(telemetry.tracer()).empty());

  m.EndTick();
  const std::string at = " tick=" + std::to_string(t);
  const std::vector<std::string> want = {
      "lock_window_open" + at + " owner=2 count=3",
      "cross_owner_eviction" + at + " owner=2 count=2",
      "lock_window_open" + at + " owner=3 count=5",
  };
  EXPECT_EQ(PerOpEvents(telemetry.tracer()), want);

  // Closing the tick again, and a tick with no activity, trace nothing.
  m.EndTick();
  m.BeginTick();
  m.EndTick();
  m.BeginTick();
  EXPECT_EQ(PerOpEvents(telemetry.tracer()), want);

  // A driver that never calls EndTick: BeginTick closes the tick, which
  // keeps its own tick number.
  const Tick later = m.now();
  m.AtomicAccess(3, 16 + 2);
  m.BeginTick();
  const std::vector<std::string> got = PerOpEvents(telemetry.tracer());
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.back(), "lock_window_open tick=" + std::to_string(later) +
                            " owner=3 count=1");
}

TEST(MachineTest, AcceptsUpToTwoHundredFiftySixOwners) {
  MachineConfig c = SmallMachine();
  c.max_owners = 256;
  Machine m(c);
  m.BeginTick();
  m.Access(255, 0x40);
  EXPECT_EQ(m.counters(255).llc_misses, 1u);
  EXPECT_EQ(m.cache().CountOwnerLines(255), 1u);
}

TEST(MachineTest, RejectsOwnersBeyondTheOneByteTag) {
  MachineConfig c = SmallMachine();
  c.max_owners = 257;
  EXPECT_DEATH(Machine{c}, "max_owners");
}

}  // namespace
}  // namespace sds::sim
