#include "sim/cache.h"

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/attribution.h"

namespace sds::sim {
namespace {

CacheConfig SmallCache(std::uint32_t sets = 8, std::uint32_t ways = 4) {
  CacheConfig c;
  c.sets = sets;
  c.ways = ways;
  return c;
}

TEST(CacheTest, FirstAccessMisses) {
  LastLevelCache cache(SmallCache());
  const auto r = cache.Access(1, 0x100);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.evicted_valid);
}

TEST(CacheTest, SecondAccessHits) {
  LastLevelCache cache(SmallCache());
  cache.Access(1, 0x100);
  EXPECT_TRUE(cache.Access(1, 0x100).hit);
}

TEST(CacheTest, ContainsReflectsResidency) {
  LastLevelCache cache(SmallCache());
  EXPECT_FALSE(cache.Contains(42));
  cache.Access(1, 42);
  EXPECT_TRUE(cache.Contains(42));
}

TEST(CacheTest, SetIndexUsesLowBits) {
  LastLevelCache cache(SmallCache(8, 4));
  EXPECT_EQ(cache.SetIndexOf(0), 0u);
  EXPECT_EQ(cache.SetIndexOf(7), 7u);
  EXPECT_EQ(cache.SetIndexOf(8), 0u);
  EXPECT_EQ(cache.SetIndexOf(0x123456789), 1u);
}

TEST(CacheTest, SetFillsUpToAssociativity) {
  LastLevelCache cache(SmallCache(8, 4));
  // 4 distinct lines mapping to set 0 all fit.
  for (LineAddr a : {0ull, 8ull, 16ull, 24ull}) cache.Access(1, a);
  for (LineAddr a : {0ull, 8ull, 16ull, 24ull}) {
    EXPECT_TRUE(cache.Contains(a));
  }
  EXPECT_EQ(cache.OwnerLinesInSet(0, 1), 4u);
}

TEST(CacheTest, LruEvictionOrder) {
  LastLevelCache cache(SmallCache(8, 2));
  cache.Access(1, 0);   // set 0
  cache.Access(1, 8);   // set 0
  cache.Access(1, 0);   // refresh 0: LRU is now 8
  const auto r = cache.Access(1, 16);  // evicts 8
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(8));
  EXPECT_TRUE(cache.Contains(16));
}

TEST(CacheTest, EvictionReportsVictimOwner) {
  LastLevelCache cache(SmallCache(8, 2));
  cache.Access(7, 0);
  cache.Access(7, 8);
  const auto r = cache.Access(3, 16);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.evicted_owner, 7u);
}

TEST(CacheTest, DistinctSetsDoNotInterfere) {
  LastLevelCache cache(SmallCache(8, 2));
  // Fill set 0 beyond capacity; set 1 lines must be untouched.
  cache.Access(1, 1);
  cache.Access(1, 9);
  for (LineAddr a : {0ull, 8ull, 16ull, 24ull}) cache.Access(1, a);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(9));
}

TEST(CacheTest, CountOwnerLines) {
  LastLevelCache cache(SmallCache(8, 4));
  for (LineAddr a = 0; a < 10; ++a) cache.Access(2, a);
  for (LineAddr a = 100; a < 103; ++a) cache.Access(5, a);
  EXPECT_EQ(cache.CountOwnerLines(2), 10u);
  EXPECT_EQ(cache.CountOwnerLines(5), 3u);
  EXPECT_EQ(cache.CountOwnerLines(9), 0u);
}

TEST(CacheTest, FlushEmptiesEverything) {
  LastLevelCache cache(SmallCache());
  for (LineAddr a = 0; a < 20; ++a) cache.Access(1, a);
  cache.Flush();
  EXPECT_EQ(cache.CountOwnerLines(1), 0u);
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_FALSE(cache.Access(1, 0).hit);
}

TEST(CacheTest, CleansingPattern) {
  // The attack's core primitive: filling a set with `ways` fresh lines must
  // evict every pre-existing line in it.
  LastLevelCache cache(SmallCache(4, 4));
  cache.Access(1, 0);  // victim line, set 0
  cache.Access(1, 4);  // victim line, set 0
  for (std::uint32_t w = 0; w < 4; ++w) {
    cache.Access(2, 1000 * 4 + static_cast<LineAddr>(w) * 4);  // set 0 lines
  }
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(4));
  EXPECT_EQ(cache.OwnerLinesInSet(0, 2), 4u);
}

// Invariant sweep: occupancy per set never exceeds associativity; the total
// number of valid lines never exceeds capacity; hits never evict.
class CacheInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheInvariantTest, RandomWorkloadInvariants) {
  const auto [sets, ways] = GetParam();
  LastLevelCache cache(SmallCache(static_cast<std::uint32_t>(sets),
                                  static_cast<std::uint32_t>(ways)));
  Rng rng(static_cast<std::uint64_t>(sets * 31 + ways));
  for (int i = 0; i < 20000; ++i) {
    const OwnerId owner = 1 + static_cast<OwnerId>(rng.UniformInt(3ull));
    const LineAddr addr = rng.UniformInt(static_cast<std::uint64_t>(
        sets * ways * 3));
    const bool was_resident = cache.Contains(addr);
    const auto r = cache.Access(owner, addr);
    EXPECT_EQ(r.hit, was_resident);
    if (r.hit) {
      EXPECT_FALSE(r.evicted_valid);
    }
    EXPECT_TRUE(cache.Contains(addr));
  }
  std::size_t total = 0;
  for (OwnerId o = 1; o <= 3; ++o) total += cache.CountOwnerLines(o);
  EXPECT_LE(total, cache.total_lines());
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(sets); ++s) {
    std::uint32_t in_set = 0;
    for (OwnerId o = 1; o <= 3; ++o) in_set += cache.OwnerLinesInSet(s, o);
    EXPECT_LE(in_set, static_cast<std::uint32_t>(ways));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheInvariantTest,
                         ::testing::Combine(::testing::Values(4, 16, 64),
                                            ::testing::Values(1, 2, 8, 16)));

TEST(CacheTest, WorkingSetSmallerThanCacheAlwaysHitsEventually) {
  LastLevelCache cache(SmallCache(64, 8));
  Rng rng(77);
  const std::uint64_t wss = 64 * 8 / 2;  // half the cache
  // Warm up.
  for (int i = 0; i < 5000; ++i) cache.Access(1, rng.UniformInt(wss));
  // A working set with uniform reuse and no contention stays resident
  // almost entirely.
  int misses = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!cache.Access(1, rng.UniformInt(wss)).hit) ++misses;
  }
  EXPECT_LT(misses, 50);
}


TEST(CacheTest, HitRetagsSharedLineToLatestToucher) {
  LastLevelCache cache(SmallCache(8, 4));
  cache.Access(1, 0);
  cache.Access(1, 8);
  EXPECT_EQ(cache.OwnerLinesInSet(0, 1), 2u);
  EXPECT_TRUE(cache.Access(2, 0).hit);
  EXPECT_EQ(cache.OwnerLinesInSet(0, 1), 1u);
  EXPECT_EQ(cache.OwnerLinesInSet(0, 2), 1u);
  EXPECT_EQ(cache.CountOwnerLines(2), 1u);
  // The re-tagged line is charged to its new owner when it is evicted.
  cache.Access(3, 16);
  cache.Access(3, 24);
  cache.Access(3, 32);  // evicts 8, the LRU line, still owner 1's
  const auto r = cache.Access(3, 40);  // evicts 0, now owner 2's
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.evicted_owner, 2u);
}

TEST(CacheTest, ReplacementAfterFlushDependsOnlyOnPostFlushTouches) {
  LastLevelCache cache(SmallCache(1, 2));
  cache.Access(1, 0);
  cache.Access(1, 1);  // before the flush, 0 is the LRU line
  cache.Flush();
  EXPECT_FALSE(cache.Access(1, 1).evicted_valid);
  EXPECT_FALSE(cache.Access(1, 0).evicted_valid);  // now 1 is the LRU line
  const auto r = cache.Access(1, 2);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(CacheTest, OneWayIsDirectMapped) {
  LastLevelCache cache(SmallCache(4, 1));
  EXPECT_FALSE(cache.Access(1, 0).evicted_valid);
  EXPECT_FALSE(cache.Access(1, 1).evicted_valid);  // another set
  const auto r = cache.Access(2, 4);  // same set as 0: replaces it at once
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.evicted_owner, 1u);
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(4));
  // Two lines of one set thrash: every access misses.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.Access(1, (i % 2 == 0) ? 0 : 4).hit);
  }
  EXPECT_EQ(cache.OwnerLinesInSet(0, 1), 1u);
  EXPECT_EQ(cache.CountOwnerLines(1), 2u);
}

TEST(CacheTest, OwnerTagHoldsTheLargestOwnerId) {
  // Owners are stored as one-byte tags; the largest id must survive the
  // round trip through every view of the cache.
  constexpr OwnerId kTop = LastLevelCache::kMaxOwnerTag;
  ASSERT_EQ(kTop, 255u);
  LastLevelCache cache(SmallCache(4, 2));
  cache.Access(kTop, 0);
  cache.Access(kTop, 4);  // same set, set now full
  cache.Access(kTop, 1);  // another set
  EXPECT_EQ(cache.OwnerLinesInSet(0, kTop), 2u);
  EXPECT_EQ(cache.OwnerLinesInSet(1, kTop), 1u);
  EXPECT_EQ(cache.CountOwnerLines(kTop), 3u);
  EXPECT_EQ(cache.CountOwnerLines(kTop - 1), 0u);
  const auto r = cache.Access(1, 8);  // evicts 0, the set's LRU line
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_EQ(r.evicted_owner, kTop);
  EXPECT_EQ(cache.OwnerLinesInSet(0, kTop), 1u);
  EXPECT_EQ(cache.OwnerLinesInSet(0, 1), 1u);
  EXPECT_EQ(cache.CountOwnerLines(kTop), 2u);
}

// The stamp-based LRU model the recency-ordered cache replaced: every line
// carries a global LRU stamp; a miss fills the first invalid way, else
// evicts the way with the smallest stamp. Kept as the reference the
// differential test holds LastLevelCache to.
class StampLruReference {
 public:
  StampLruReference(std::uint32_t sets, std::uint32_t ways, OwnerId owners)
      : sets_(sets), ways_(ways), owners_(owners),
        lines_(static_cast<std::size_t>(sets) * ways),
        evictions_(static_cast<std::size_t>(owners) * owners) {}

  CacheAccessResult Access(OwnerId owner, LineAddr addr) {
    Line* base = Set(addr & (sets_ - 1));
    CacheAccessResult r;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == addr) {
        base[w].lru = ++clock_;
        base[w].owner = owner;
        r.hit = true;
        return r;
      }
    }
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < ways_ && victim == nullptr; ++w) {
      if (!base[w].valid) victim = &base[w];
    }
    if (victim == nullptr) {
      victim = base;
      for (std::uint32_t w = 1; w < ways_; ++w) {
        if (base[w].lru < victim->lru) victim = &base[w];
      }
      r.evicted_valid = true;
      r.evicted_owner = victim->owner;
      ++evictions_[static_cast<std::size_t>(owner) * owners_ + victim->owner];
    }
    *victim = Line{addr, owner, ++clock_, true};
    return r;
  }

  bool Contains(LineAddr addr) const {
    const Line* base = Set(addr & (sets_ - 1));
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == addr) return true;
    }
    return false;
  }

  std::uint32_t OwnerLinesInSet(LineAddr set, OwnerId owner) const {
    const Line* base = Set(set);
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].owner == owner) ++n;
    }
    return n;
  }

  std::uint64_t evictions(OwnerId culprit, OwnerId victim) const {
    return evictions_[static_cast<std::size_t>(culprit) * owners_ + victim];
  }

  void Flush() {
    for (Line& line : lines_) line.valid = false;
    clock_ = 0;
  }

 private:
  struct Line {
    LineAddr tag = 0;
    OwnerId owner = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  Line* Set(LineAddr set) { return &lines_[set * ways_]; }
  const Line* Set(LineAddr set) const { return &lines_[set * ways_]; }

  std::uint32_t sets_;
  std::uint32_t ways_;
  OwnerId owners_;
  std::vector<Line> lines_;
  std::vector<std::uint64_t> evictions_;
  std::uint64_t clock_ = 0;
};

class CacheDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Random multi-owner traffic, a Flush() mid-stream, and a ledger attached:
// every access result, the residency/occupancy queries and the eviction
// matrix must match the stamp-based reference exactly.
TEST_P(CacheDifferentialTest, MatchesStampLruReference) {
  const auto sets = static_cast<std::uint32_t>(std::get<0>(GetParam()));
  const auto ways = static_cast<std::uint32_t>(std::get<1>(GetParam()));
  constexpr OwnerId kOwners = 5;
  LastLevelCache cache(SmallCache(sets, ways));
  AttributionLedger ledger(kOwners);
  cache.AttachLedger(&ledger);
  StampLruReference ref(sets, ways, kOwners);

  Rng rng(static_cast<std::uint64_t>(sets) * 101 + ways);
  const std::uint64_t lines = static_cast<std::uint64_t>(sets) * ways;
  constexpr int kAccesses = 40000;
  for (int i = 0; i < kAccesses; ++i) {
    if (i == kAccesses / 2) {
      cache.Flush();
      ref.Flush();
    }
    const OwnerId owner = 1 + static_cast<OwnerId>(rng.UniformInt(4ull));
    // Half the traffic reuses a hot range that fits the cache, half sweeps
    // a range three times its size, so hits land at every recency position
    // and full sets keep evicting.
    const LineAddr addr = rng.Bernoulli(0.5)
                              ? rng.UniformInt(lines / 2 + 1)
                              : rng.UniformInt(lines * 3);
    const CacheAccessResult got = cache.Access(owner, addr);
    const CacheAccessResult want = ref.Access(owner, addr);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.evicted_valid, want.evicted_valid) << "access " << i;
    if (want.evicted_valid) {
      ASSERT_EQ(got.evicted_owner, want.evicted_owner) << "access " << i;
    }
    if (i % 997 == 0) {
      for (LineAddr a = 0; a < lines * 3; ++a) {
        ASSERT_EQ(cache.Contains(a), ref.Contains(a)) << "access " << i;
      }
      for (OwnerId o = 0; o < kOwners; ++o) {
        std::size_t total = 0;
        for (std::uint32_t s = 0; s < sets; ++s) {
          const std::uint32_t n = ref.OwnerLinesInSet(s, o);
          ASSERT_EQ(cache.OwnerLinesInSet(s, o), n) << "access " << i;
          total += n;
        }
        ASSERT_EQ(cache.CountOwnerLines(o), total) << "access " << i;
      }
    }
  }
  for (OwnerId culprit = 0; culprit < kOwners; ++culprit) {
    for (OwnerId victim = 0; victim < kOwners; ++victim) {
      EXPECT_EQ(ledger.evictions_inflicted(culprit, victim),
                ref.evictions(culprit, victim));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheDifferentialTest,
                         ::testing::Combine(::testing::Values(1, 4, 64),
                                            ::testing::Values(1, 2, 16, 20)));

}  // namespace
}  // namespace sds::sim
