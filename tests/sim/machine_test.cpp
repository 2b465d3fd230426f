#include "sim/machine.h"

#include <gtest/gtest.h>

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
