// Set-associative last-level cache with true LRU replacement.
//
// This is a real (scaled) cache model, not a statistical one: VMs own disjoint
// line-address ranges, their accesses contend for the same physical sets, and
// the LLC cleansing attack's effect on victim miss counts EMERGES from actual
// evictions rather than being injected. The default configuration scales the
// paper's 35 MB / 20-way Xeon LLC down to 2 MiB / 16-way; shapes are
// scale-free. On a shared 4-vCPU Intel Xeon VM (RelWithDebInfo, g++ 12.2)
// the perfbench scenarios run at about 14k (cleansing_kstest) and 32k
// (buslock_sds) ticks per second, i.e. 600 virtual seconds in 2-4 s of host
// time.
//
// Representation: each set is a recency ring over two parallel arrays
// (tags_ and owners_, sets x ways each) plus a per-set head and fill count
// (sets_). The line of recency rank r (0 = most recent) sits in slot
// (head + r) mod ways, and the valid lines are ranks [0, fill). A miss moves
// head back one slot and writes the line there: that slot is a free one, or
// on a full set the least recently used line, which it replaces. A hit at
// rank k shifts ranks [0, k) one rank older and puts the line at rank 0; a
// hit on the LRU line of a full set is the same head step as a miss, with
// nothing evicted. Move-to-front keeps exactly the order of last touch that
// global LRU stamps would give, and which physical way holds a line is
// never observable, so this is exact LRU. A miss costs O(1) whatever the
// associativity: the cleansing attack misses on ~80% of its accesses.
//
// Invariant: the empty ways of a set are always ranks [fill, ways). Lines
// are only ever invalidated all at once, by Flush(), so no hole can open
// among the valid ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sim/attribution.h"

namespace sds::sim {

struct CacheConfig {
  // Number of sets; must be a power of two.
  std::uint32_t sets = 2048;
  // Associativity (lines per set). Paper hardware: 20-way.
  std::uint32_t ways = 16;
};

struct CacheAccessResult {
  bool hit = false;
  // Owner of the line that was evicted to make room (only meaningful when
  // !hit and a valid line was displaced).
  bool evicted_valid = false;
  OwnerId evicted_owner = 0;
};

class LastLevelCache {
 public:
  // Owners are stored as one-byte tags, so owner ids must not exceed this
  // (MachineConfig::max_owners <= 256 is checked by Machine).
  static constexpr OwnerId kMaxOwnerTag = 255;

  explicit LastLevelCache(const CacheConfig& config);

  // Performs a load of `addr` on behalf of `owner`: on hit refreshes LRU, on
  // miss fills the line (evicting the LRU way).
  CacheAccessResult Access(OwnerId owner, LineAddr addr) {
    const std::uint32_t set = SetIndexOf(addr);
    const std::uint32_t ways = config_.ways;
    LineAddr* tags = &tags_[static_cast<std::size_t>(set) * ways];
    std::uint8_t* owners = &owners_[static_cast<std::size_t>(set) * ways];
    SetState& st = sets_[set];
    CacheAccessResult result;
    SDS_DCHECK(owner <= kMaxOwnerTag, "owner id does not fit an owner tag");

    std::uint32_t slot = st.head;
    std::uint32_t rank = 0;
    while (rank < st.fill && tags[slot] != addr) {
      ++rank;
      if (++slot == ways) slot = 0;
    }
    result.hit = rank < st.fill;
    if (!result.hit || rank == ways - 1) {
      // The line becomes rank 0 by stepping head back onto rank ways - 1:
      // a free slot, the LRU line a miss replaces, or the hit line itself.
      st.head = (st.head == 0 ? ways : st.head) - 1;
      if (!result.hit) {
        if (st.fill < ways) {
          ++st.fill;
        } else {
          result.evicted_valid = true;
          result.evicted_owner = owners[st.head];
          if (ledger_ != nullptr) {
            ledger_->RecordEviction(owner, result.evicted_owner);
          }
        }
        tags[st.head] = addr;
      }
    } else {
      for (; rank > 0; --rank) {
        const std::uint32_t older = slot;
        slot = (slot == 0 ? ways : slot) - 1;
        tags[older] = tags[slot];
        owners[older] = owners[slot];
      }
      tags[st.head] = addr;
    }
    // A shared line re-tags to its latest toucher.
    owners[st.head] = static_cast<std::uint8_t>(owner);
    return result;
  }

  // Attaches the interference attribution ledger (nullptr detaches). While
  // attached, every eviction of a valid line is recorded against the owner
  // that forced it — ways are already tagged with their owner, so the
  // inflicted/suffered matrix falls out of the replacement decision itself.
  // The only cost on the detached path is a null test in the eviction
  // branch; the hit path is untouched.
  void AttachLedger(AttributionLedger* ledger) { ledger_ = ledger; }

  // True when the line currently resides in the cache (no state change).
  bool Contains(LineAddr addr) const;

  // Number of valid lines currently owned by `owner` (introspection for
  // tests and occupancy diagnostics; a real attacker infers this by timing).
  std::size_t CountOwnerLines(OwnerId owner) const;

  // Number of valid lines owned by `owner` within one set.
  std::uint32_t OwnerLinesInSet(std::uint32_t set, OwnerId owner) const;

  std::uint32_t SetIndexOf(LineAddr addr) const {
    return static_cast<std::uint32_t>(addr) & set_mask_;
  }

  const CacheConfig& config() const { return config_; }
  std::size_t total_lines() const {
    return static_cast<std::size_t>(config_.sets) * config_.ways;
  }

  void Flush();

 private:
  CacheConfig config_;
  std::uint32_t set_mask_;
  // One set's recency ring (see the representation note above).
  struct SetState {
    std::uint32_t head = 0;  // slot of the most recently used line
    std::uint32_t fill = 0;  // valid lines
  };

  // Slot of the line with recency rank `rank` in a set headed at `head`.
  std::uint32_t SlotOf(std::uint32_t head, std::uint32_t rank) const {
    const std::uint32_t slot = head + rank;
    return slot < config_.ways ? slot : slot - config_.ways;
  }

  // sets * ways each, row-major by set. Owners are one byte each (see
  // kMaxOwnerTag): at 2048 x 16 that is 32 KiB instead of 128 KiB.
  std::vector<LineAddr> tags_;
  std::vector<std::uint8_t> owners_;
  std::vector<SetState> sets_;
  AttributionLedger* ledger_ = nullptr;  // not owned; see AttachLedger
};

}  // namespace sds::sim
