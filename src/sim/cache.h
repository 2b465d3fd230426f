// Set-associative last-level cache with true LRU replacement.
//
// This is a real (scaled) cache model, not a statistical one: VMs own disjoint
// line-address ranges, their accesses contend for the same physical sets, and
// the LLC cleansing attack's effect on victim miss counts EMERGES from actual
// evictions rather than being injected. The default configuration scales the
// paper's 35 MB / 20-way Xeon LLC down to 2 MiB / 16-way; shapes are
// scale-free. On a shared 4-vCPU Intel Xeon VM (RelWithDebInfo, g++ 12.2)
// the perfbench scenarios run at about 10k (cleansing_kstest) and 26k
// (buslock_sds) ticks per second, i.e. 600 virtual seconds in 2-6 s of host
// time.
//
// Representation: each set keeps its lines in recency order, most recent
// first, in two parallel arrays (tags_ and owners_, sets x ways each) plus a
// per-set fill count. A hit at position p shifts slots [0, p) down by one and
// puts the line at slot 0; a miss fills the next free slot (or, on a full
// set, replaces the last slot — the least recently used line) and moves it to
// the front. Move-to-front keeps exactly the order of last touch that global
// LRU stamps would give, and which physical way holds a line is never
// observable, so this is exact LRU.
//
// Invariant: the valid lines of a set are slots [0, fill_[set]); the empty
// ways are always a suffix. Lines are only ever invalidated all at once, by
// Flush(), so no hole can open inside the valid prefix.
#pragma once

#include <algorithm>
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
    std::uint32_t& fill = fill_[set];
    CacheAccessResult result;
    SDS_DCHECK(owner <= kMaxOwnerTag, "owner id does not fit an owner tag");

    std::uint32_t pos = 0;
    while (pos < fill && tags[pos] != addr) ++pos;
    if (pos < fill) {
      result.hit = true;  // a shared line re-tags to its latest toucher below
    } else if (fill < ways) {
      ++fill;
    } else {
      pos = ways - 1;
      result.evicted_valid = true;
      result.evicted_owner = owners[pos];
      if (ledger_ != nullptr) ledger_->RecordEviction(owner, owners[pos]);
    }
    std::copy_backward(tags, tags + pos, tags + pos + 1);
    std::copy_backward(owners, owners + pos, owners + pos + 1);
    tags[0] = addr;
    owners[0] = static_cast<std::uint8_t>(owner);
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
  // sets * ways each, row-major by set; slot 0 of a set is its most recently
  // used line (see the representation note above). Owners are one byte each
  // (see kMaxOwnerTag): at 2048 x 16 that is 32 KiB instead of 128 KiB.
  std::vector<LineAddr> tags_;
  std::vector<std::uint8_t> owners_;
  std::vector<std::uint32_t> fill_;      // valid lines per set
  AttributionLedger* ledger_ = nullptr;  // not owned; see AttachLedger
};

}  // namespace sds::sim
