// Set-associative LRU write-back cache model, used for both the shared L2
// and the per-worker L1s of the simulated GPU.
//
// This is the single hottest code path of the model substrate (hundreds of
// millions of calls per fig07 run) and is dominated by host-memory latency
// on the per-set metadata, so the layout is tuned for footprint and probe
// locality:
//  * one typed block per set (SetBlock<W>) — tags, the set's access tick,
//    touched flag, valid/dirty bitmasks, and LRU ticks live side by side,
//    so a probe touches one host-memory region instead of parallel arrays
//    (120 B per 16-way set, 48 B per 4-way set);
//  * 32-bit tags (a line index = simulated address / line_bytes; one
//    simulator instance would need > 128 GB of simulated allocations to
//    overflow, which a hard check rejects) — a 16-way set's tags fit one
//    host cache line. Large 16-way caches (>= 65537 sets, i.e. the modeled
//    L2) store 16-bit tags instead: there the per-set quotient
//    line / num_sets provably fits 16 bits, and the same 128-bit multiply
//    that computes the fastmod set index yields that quotient for free
//    (88 B per set instead of 120 B);
//  * valid/dirty state as per-set u64 bitmasks, so the steady-state miss
//    path finds its victim without an O(ways) invalid-way scan;
//  * 16-bit LRU ticks, renormalized (order-preserving rank compression)
//    whenever a set's tick counter reaches the u16 limit. Renormalization
//    preserves the relative order of all ticks, so victim choice — and
//    therefore every counter — is unaffected by how often it runs.
// Replacement semantics are bit-identical to the original AoS
// implementation: on a miss the victim is the highest-index invalid way if
// any exists, else the lowest-index way with the minimum LRU tick.
//
// Sets are independent: a probe reads and writes only its own set's block.
// So a probe may be applied by any thread, as long as each set sees its
// probes in the original order and no two threads probe one set at once.
// `set_partitions` splits the sets into interleaved partitions with
// separate touched-set lists; MemoryHierarchySim runs each partition of its
// L2 on its own shard thread, splitting lines on the emitting thread
// (`LineSplitter`) and applying the probes there with `access_split`.
#pragma once

#include <bit>
#include <vector>

#include "util/common.hpp"

namespace brickdl {

class CacheModel {
  /// A line index that can never occur (checked by LineSplitter).
  static constexpr u32 kEmptyTag = ~u32{0};
  static constexpr int kMaxWays = 64;  ///< way-mask width (checked in ctor)

  /// Compile-time block geometries the runtime (ways, num_sets) pair maps to.
  enum class Geometry : u8 { kWays4, kWays16, kWays16Narrow, kGeneric };

  /// Calls `fn.template operator()<W, Tag>()` for this cache's geometry
  /// (defined ahead of its callers: its return type is deduced).
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) const {
    switch (geometry_) {
      case Geometry::kWays4:
        return fn.template operator()<4, u32>();
      case Geometry::kWays16:
        return fn.template operator()<16, u32>();
      case Geometry::kWays16Narrow:
        return fn.template operator()<16, u16>();
      default:
        return fn.template operator()<kMaxWays, u32>();
    }
  }

 public:
  struct AccessResult {
    bool hit = false;
    bool evicted_dirty = false;
    u64 evicted_line = 0;  ///< line index, valid when evicted_dirty
  };

  /// Maps a line index to its set (line % num_sets) and per-set quotient
  /// (line / num_sets). The set count is a runtime value, so the compiler
  /// cannot strength-reduce the division; one 128-bit multiply yields both
  /// instead: Lemire's fastmod on the low half is the set, the high half the
  /// quotient — exact for 32-bit line and set counts.
  class LineSplitter {
   public:
    explicit LineSplitter(i64 num_sets)
        : fastmod_m_(~u64{0} / static_cast<u64>(num_sets) + 1),
          num_sets_(num_sets) {}

    /// The set index alone (a single multiply chain).
    size_t set_of(u32 line) const {
      const u64 low = fastmod_m_ * line;
      return static_cast<size_t>(
          (static_cast<unsigned __int128>(low) * static_cast<u64>(num_sets_)) >>
          64);
    }

    void split(u32 line, size_t* set, u32* quot) const {
      const unsigned __int128 prod =
          static_cast<unsigned __int128>(fastmod_m_) * line;
      *quot = static_cast<u32>(static_cast<u64>(prod >> 64));
      *set = static_cast<size_t>(
          (static_cast<unsigned __int128>(static_cast<u64>(prod)) *
           static_cast<u64>(num_sets_)) >>
          64);
    }

    /// split() with a one-entry incremental cache. The emitters' access
    /// streams are dominated by short 2–3 line sequential runs (one window
    /// row is a handful of lines), and line+1 maps to set+1 — wrapping to
    /// set 0 exactly when the quotient advances — so the common next-line
    /// probe derives (set, quot) with an increment and a compare instead of
    /// the 128-bit fastmod multiply. Bit-identical by construction: for
    /// line = quot * num_sets + set with set < num_sets (Euclidean
    /// division), line+1 has remainder set+1 unless set+1 == num_sets, where
    /// it is (quot+1, 0).
    void split_cached(u32 line, size_t* set, u32* quot) {
      if (cache_enabled_ && valid_) {
        if (line == last_line_) {
          *set = last_set_;
          *quot = last_quot_;
          return;
        }
        if (line == last_line_ + 1) {
          last_line_ = line;
          if (++last_set_ == static_cast<size_t>(num_sets_)) {
            last_set_ = 0;
            ++last_quot_;
          }
          *set = last_set_;
          *quot = last_quot_;
          return;
        }
      }
      split(line, set, quot);
      valid_ = true;
      last_line_ = line;
      last_set_ = *set;
      last_quot_ = *quot;
    }

    /// Disable the incremental cache (tests compare the fast path's
    /// counters against the pure fastmod derivation bit for bit).
    void set_cache_enabled(bool enabled) {
      cache_enabled_ = enabled;
      valid_ = false;
    }

    /// The 32-bit line index the tags store; hard-fails past the bound.
    static u32 check_line(u64 line) {
      BDL_CHECK_MSG(line < static_cast<u64>(kEmptyTag),
                    "simulated line index overflows the 32-bit cache tag "
                    "(more than ~128 GB of simulated address space)");
      return static_cast<u32>(line);
    }

   private:
    u64 fastmod_m_;  ///< UINT64_MAX / num_sets + 1
    i64 num_sets_;
    bool cache_enabled_ = true;
    bool valid_ = false;
    u32 last_line_ = 0;
    u32 last_quot_ = 0;
    size_t last_set_ = 0;
  };

  CacheModel(i64 capacity_bytes, int ways, i64 line_bytes);

  i64 line_bytes() const { return line_bytes_; }
  i64 num_sets() const { return num_sets_; }
  /// A splitter for this geometry, for callers that split lines on one
  /// thread and apply the probes (`access_split`) on another.
  LineSplitter splitter() const { return LineSplitter(num_sets_); }

  /// Probe/fill one line (by line index = address / line_bytes). Misses
  /// allocate; write marks dirty. Reports a dirty eviction if one occurred.
  /// Defined inline with the way count as a template parameter so the tag
  /// scan fully unrolls (and vectorizes) for the two shipped associativities;
  /// other geometries (unit tests) run on the 64-way block with runtime
  /// bounds.
  AccessResult access(u64 line, bool write) {
    const u32 line32 = LineSplitter::check_line(line);
    size_t set;
    u32 quot;
    split_.split_cached(line32, &set, &quot);
    return dispatch([&]<int W, typename Tag>() {
      return access_ways<W, Tag>(set, make_tag<Tag>(line32, quot), write);
    });
  }

  /// access() for a line already split by `splitter()`: identical result.
  AccessResult access_split(size_t set, u32 quot, bool write) {
    return dispatch([&]<int W, typename Tag>() {
      return access_ways<W, Tag>(set, tag_of<Tag>(set, quot), write);
    });
  }

  /// Hint the host CPU to pull `line`'s set-metadata block into cache. The
  /// multi-line access loop calls this one line ahead: probes are
  /// latency-bound on the set metadata, and the upcoming lines of a run are
  /// known in advance.
  void prefetch(u64 line) const {
    if (line < static_cast<u64>(kEmptyTag)) {
      prefetch_set(split_.set_of(static_cast<u32>(line)));
    }
  }
  void prefetch_set(size_t set) const {
    __builtin_prefetch(
        reinterpret_cast<const char*>(storage_.data()) + set * block_bytes_,
        /*rw=*/1, /*locality=*/3);
  }

  /// Probe without filling or LRU update (used by flush accounting tests).
  bool contains(u64 line) const;

  /// Invalidate everything, returning the number of dirty lines dropped or
  /// written back (caller decides what a dirty line means). If `dirty_lines`
  /// is non-null the dirty line indices are appended to it.
  i64 flush(std::vector<u64>* dirty_lines = nullptr);

  /// Invalidate everything, invoking `on_dirty(line)` for every dirty line
  /// in the exact order flush() would report them — the zero-copy variant
  /// for the per-invocation L1 reset, which otherwise routes tens of
  /// millions of writeback lines through a scratch vector.
  template <typename Fn>
  i64 flush_visit(Fn&& on_dirty) {
    return dispatch(
        [&]<int W, typename Tag>() { return flush_ways<W, Tag>(on_dirty); });
  }

  /// Invalidate any cached copy of `line` without writeback accounting;
  /// models discarding dead intermediate data.
  void invalidate(u64 line);

  /// Split the sets into `parts` (a power of two) partitions interleaved in
  /// runs of 2^kPartitionShift consecutive sets, each with its own
  /// touched-set list reserved up front: probes of different partitions may
  /// then run on different threads at once, and none of them allocates.
  /// Legal only while no set is touched.
  void set_partitions(int parts);
  int partition_of(size_t set) const {
    return static_cast<int>((set >> kPartitionShift) & partition_mask_);
  }

  void set_split_cache_enabled(bool enabled) {
    split_.set_cache_enabled(enabled);
  }

 private:
  /// LRU ticks are stored as u16; a set renormalizes at this tick value.
  static constexpr u32 kTickLimit = 0xFFFF;
  /// Smallest set count for which every quotient line / num_sets of a valid
  /// 32-bit line index fits in a u16 with 0xFFFF left free as the empty
  /// marker: floor((2^32 - 2) / 65537) == 65534 <= 0xFFFE.
  static constexpr i64 kNarrowTagMinSets = 65537;
  /// Partitions interleave in runs of 64 sets (5.5 KB of 16-way narrow
  /// blocks), so two partitions share no host cache line but at the seams.
  static constexpr int kPartitionShift = 6;

  /// Per-set metadata. Field order keeps the hit path (tags scan + tick +
  /// flags + one lru entry) at the front of the block. `Tag` is u32 (the
  /// full line index) or, for large caches, u16 (line / num_sets — unique
  /// within a set, and the set index reconstructs the line exactly).
  template <int W, typename Tag>
  struct SetBlock {
    using TagType = Tag;
    Tag tags[W];  ///< empty_tag<Tag>() = invalid way
    u32 tick;     ///< set access counter (LRU clock)
    u32 flags;    ///< bit 0: touched since last flush
    u64 valid;    ///< way bitmask, mirrors tags[w] != empty
    u64 dirty;    ///< way bitmask, always 0 for invalid ways
    u16 lru[W];   ///< larger = more recently used
  };
  static_assert(sizeof(SetBlock<16, u32>) == 120);
  static_assert(sizeof(SetBlock<16, u16>) == 88);
  static_assert(sizeof(SetBlock<4, u32>) == 48);

  /// One partition's touched sets, on its own host cache line.
  struct alignas(64) TouchedSets {
    std::vector<u32> sets;
  };

  template <typename Tag>
  static constexpr Tag empty_tag() {
    return static_cast<Tag>(~Tag{0});
  }

  template <int W, typename Tag>
  SetBlock<W, Tag>* block(size_t set) {
    return reinterpret_cast<SetBlock<W, Tag>*>(storage_.data()) + set;
  }
  template <int W, typename Tag>
  const SetBlock<W, Tag>* block(size_t set) const {
    return reinterpret_cast<const SetBlock<W, Tag>*>(storage_.data()) + set;
  }

  /// The stored tag for `line` in the set it maps to.
  template <typename Tag>
  static Tag make_tag(u32 line, u32 quot) {
    if constexpr (sizeof(Tag) == 2) {
      return static_cast<Tag>(quot);
    } else {
      (void)quot;
      return line;
    }
  }

  /// The stored tag for the line of quotient `quot` in `set`.
  template <typename Tag>
  Tag tag_of(size_t set, u32 quot) const {
    if constexpr (sizeof(Tag) == 2) {
      (void)set;
      return static_cast<Tag>(quot);
    } else {
      return static_cast<Tag>(quot * static_cast<u32>(num_sets_) +
                              static_cast<u32>(set));
    }
  }

  /// Inverse of make_tag: the full line index of a stored tag.
  template <typename Tag>
  u64 line_of_tag(Tag tag, size_t set) const {
    if constexpr (sizeof(Tag) == 2) {
      return static_cast<u64>(tag) * static_cast<u64>(num_sets_) +
             static_cast<u64>(set);
    } else {
      (void)set;
      return static_cast<u64>(tag);
    }
  }

  /// Order-preserving rank compression of one set's LRU ticks; called when
  /// the set's tick counter reaches kTickLimit. Ties — only possible between
  /// stale invalid ways — keep their original first-index-wins resolution.
  template <int W, typename Tag>
  void renormalize_set(SetBlock<W, Tag>* blk, int ways) {
    u16 ranks[kMaxWays];
    for (int w = 0; w < ways; ++w) {
      u16 rank = 1;
      for (int v = 0; v < ways; ++v) {
        if (blk->lru[v] < blk->lru[w]) ++rank;
      }
      ranks[w] = rank;
    }
    for (int w = 0; w < ways; ++w) blk->lru[w] = ranks[w];
    blk->tick = static_cast<u32>(ways);
  }

  /// `W` is the block geometry; the shipped associativities use W == ways_
  /// exactly, arbitrary test geometries run on the kMaxWays block with the
  /// runtime way count.
  template <int W, typename Tag>
  AccessResult access_ways(size_t set, Tag key, bool write) {
    AccessResult result;
    const int ways = W == kMaxWays ? ways_ : W;
    SetBlock<W, Tag>* blk = block<W, Tag>(set);
    if (!(blk->flags & 1)) {
      blk->flags |= 1;
      touched_[static_cast<size_t>(partition_of(set))].sets.push_back(
          static_cast<u32>(set));
    }
    if (blk->tick == kTickLimit) renormalize_set(blk, ways);
    const u16 tick = static_cast<u16>(++blk->tick);

    // Branchless full scan (tags are unique within a set): with a
    // compile-time way count this vectorizes, which beats an early-exit
    // scalar scan at 16 ways.
    int hit_way = -1;
    for (int w = 0; w < ways; ++w) {
      if (blk->tags[w] == key) hit_way = w;
    }
    if (hit_way >= 0) {
      blk->lru[hit_way] = tick;
      if (write) blk->dirty |= u64{1} << hit_way;
      result.hit = true;
      return result;
    }

    // Miss: fill the highest-index invalid way if one exists (this matches
    // the original single-pass AoS scan, where every invalid way overwrote
    // the victim), else evict the lowest-index way with the minimum LRU tick.
    const u64 full =
        ways == 64 ? ~u64{0} : (u64{1} << static_cast<unsigned>(ways)) - 1;
    const u64 invalid = blk->valid ^ full;
    int victim;
    if (invalid != 0) {
      victim = 63 - std::countl_zero(invalid);
    } else {
      victim = 0;
      u16 victim_lru = blk->lru[0];
      for (int w = 1; w < ways; ++w) {
        if (blk->lru[w] < victim_lru) {
          victim_lru = blk->lru[w];
          victim = w;
        }
      }
      if ((blk->dirty >> victim) & 1) {
        result.evicted_dirty = true;
        result.evicted_line = line_of_tag(blk->tags[victim], set);
      }
    }
    const u64 bit = u64{1} << static_cast<unsigned>(victim);
    blk->tags[victim] = key;
    blk->lru[victim] = tick;
    blk->valid |= bit;
    blk->dirty = write ? (blk->dirty | bit) : (blk->dirty & ~bit);
    return result;
  }

  template <int W, typename Tag, typename Fn>
  i64 flush_ways(Fn&& on_dirty) {
    const int ways = W == kMaxWays ? ways_ : W;
    i64 dirty_count = 0;
    for (TouchedSets& touched : touched_) {
      for (u32 set : touched.sets) {
        SetBlock<W, Tag>* blk = block<W, Tag>(set);
        const u64 dirty = blk->dirty;
        for (int w = 0; w < ways; ++w) {
          if ((dirty >> w) & 1) {
            ++dirty_count;
            on_dirty(line_of_tag(blk->tags[w], set));
          }
          blk->tags[w] = empty_tag<Tag>();
        }
        blk->flags = 0;
        blk->valid = 0;
        blk->dirty = 0;
      }
      touched.sets.clear();
    }
    return dirty_count;
  }

  bool clean() const;

  i64 line_bytes_;
  int ways_;
  i64 num_sets_;
  Geometry geometry_ = Geometry::kGeneric;
  size_t block_bytes_ = 0;  ///< sizeof(SetBlock<geometry>)
  u32 partition_mask_ = 0;  ///< partitions - 1
  LineSplitter split_;      ///< for access(); read-only for access_split()
  // Raw backing store for the SetBlock array (u64 so the base is 8-aligned,
  // matching alignof(SetBlock)); sized/initialized per geometry by the
  // constructor.
  std::vector<u64> storage_;
  // Sets touched since the last flush, per partition, so flush() is
  // O(working set) instead of O(capacity) — per-invocation L1 resets would
  // otherwise dominate.
  std::vector<TouchedSets> touched_;
};

}  // namespace brickdl
