#include "sim/cache.hpp"

namespace brickdl {

namespace {

i64 checked_num_sets(i64 capacity_bytes, int ways, i64 line_bytes) {
  BDL_CHECK(capacity_bytes > 0 && ways > 0 && line_bytes > 0);
  const i64 num_sets = capacity_bytes / (ways * line_bytes);
  BDL_CHECK_MSG(num_sets > 0, "cache too small for its associativity");
  return num_sets;
}

}  // namespace

CacheModel::CacheModel(i64 capacity_bytes, int ways, i64 line_bytes)
    : line_bytes_(line_bytes),
      ways_(ways),
      num_sets_(checked_num_sets(capacity_bytes, ways, line_bytes)),
      split_(num_sets_),
      touched_(1) {
  BDL_CHECK_MSG(ways <= kMaxWays,
                "associativity above 64 overflows the way masks");
  if (ways_ == 4) {
    geometry_ = Geometry::kWays4;
  } else if (ways_ == 16) {
    geometry_ = num_sets_ >= kNarrowTagMinSets ? Geometry::kWays16Narrow
                                               : Geometry::kWays16;
  } else {
    geometry_ = Geometry::kGeneric;
  }
  dispatch([&]<int W, typename Tag>() {
    using Block = SetBlock<W, Tag>;
    block_bytes_ = sizeof(Block);
    storage_.assign((static_cast<size_t>(num_sets_) * sizeof(Block) + 7) / 8,
                    0);
    for (i64 s = 0; s < num_sets_; ++s) {
      Block* blk = block<W, Tag>(static_cast<size_t>(s));
      for (int w = 0; w < ways_; ++w) blk->tags[w] = empty_tag<Tag>();
    }
  });
}

bool CacheModel::clean() const {
  for (const TouchedSets& touched : touched_) {
    if (!touched.sets.empty()) return false;
  }
  return true;
}

void CacheModel::set_partitions(int parts) {
  BDL_CHECK(parts >= 1 && std::has_single_bit(static_cast<unsigned>(parts)));
  BDL_CHECK_MSG(clean(), "cache partitions change only while clean");
  partition_mask_ = static_cast<u32>(parts - 1);
  touched_ = std::vector<TouchedSets>(static_cast<size_t>(parts));
  // Each partition owns an equal share of the runs of 2^kPartitionShift
  // sets, give or take one run.
  const size_t share =
      static_cast<size_t>(num_sets_ / parts) + (size_t{1} << kPartitionShift);
  for (TouchedSets& touched : touched_) touched.sets.reserve(share);
}

bool CacheModel::contains(u64 line) const {
  const u32 line32 = LineSplitter::check_line(line);
  size_t set;
  u32 quot;
  split_.split(line32, &set, &quot);
  return dispatch([&]<int W, typename Tag>() {
    const Tag key = make_tag<Tag>(line32, quot);
    const SetBlock<W, Tag>* blk = block<W, Tag>(set);
    const int ways = W == kMaxWays ? ways_ : W;
    for (int w = 0; w < ways; ++w) {
      if (blk->tags[w] == key) return true;
    }
    return false;
  });
}

i64 CacheModel::flush(std::vector<u64>* dirty_lines) {
  return flush_visit([dirty_lines](u64 line) {
    if (dirty_lines) dirty_lines->push_back(line);
  });
}

void CacheModel::invalidate(u64 line) {
  const u32 line32 = LineSplitter::check_line(line);
  size_t set;
  u32 quot;
  split_.split(line32, &set, &quot);
  dispatch([&]<int W, typename Tag>() {
    const Tag key = make_tag<Tag>(line32, quot);
    SetBlock<W, Tag>* blk = block<W, Tag>(set);
    const int ways = W == kMaxWays ? ways_ : W;
    for (int w = 0; w < ways; ++w) {
      if (blk->tags[w] == key) {
        const u64 bit = u64{1} << static_cast<unsigned>(w);
        blk->tags[w] = empty_tag<Tag>();
        blk->valid &= ~bit;
        blk->dirty &= ~bit;
        return;
      }
    }
  });
}

}  // namespace brickdl
