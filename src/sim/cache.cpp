#include "sim/cache.h"

#include "common/check.h"

namespace sds::sim {

LastLevelCache::LastLevelCache(const CacheConfig& config) : config_(config) {
  SDS_CHECK(config.sets > 0 && (config.sets & (config.sets - 1)) == 0,
            "cache sets must be a power of two");
  SDS_CHECK(config.ways > 0, "cache needs at least one way");
  set_mask_ = config.sets - 1;
  tags_.resize(total_lines());
  owners_.resize(total_lines());
  sets_.resize(config.sets);
}

bool LastLevelCache::Contains(LineAddr addr) const {
  const std::uint32_t set = SetIndexOf(addr);
  const LineAddr* tags = &tags_[static_cast<std::size_t>(set) * config_.ways];
  const SetState& st = sets_[set];
  for (std::uint32_t rank = 0; rank < st.fill; ++rank) {
    if (tags[SlotOf(st.head, rank)] == addr) return true;
  }
  return false;
}

std::size_t LastLevelCache::CountOwnerLines(OwnerId owner) const {
  std::size_t count = 0;
  for (std::uint32_t set = 0; set < config_.sets; ++set) {
    count += OwnerLinesInSet(set, owner);
  }
  return count;
}

std::uint32_t LastLevelCache::OwnerLinesInSet(std::uint32_t set,
                                              OwnerId owner) const {
  SDS_CHECK(set < config_.sets, "set index out of range");
  const std::uint8_t* owners =
      &owners_[static_cast<std::size_t>(set) * config_.ways];
  const SetState& st = sets_[set];
  std::uint32_t count = 0;
  for (std::uint32_t rank = 0; rank < st.fill; ++rank) {
    if (owners[SlotOf(st.head, rank)] == owner) ++count;
  }
  return count;
}

void LastLevelCache::Flush() {
  sets_.assign(sets_.size(), SetState{});
}

}  // namespace sds::sim
