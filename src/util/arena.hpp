// Per-worker bump-pointer scratch arena.
//
// The merged-execution hot loop gathers a handful of input windows and one
// output window per brick, and with std::vector scratch that is several
// malloc/free round-trips (plus zero-fill of freshly grown capacity) per
// brick per worker. The arena replaces them with pointer bumps into a slab
// that is recycled wholesale: executors reset a worker's arena at each
// kernel-invocation boundary (invocation_begin), mirroring how the modeled
// GPU scratchpad is dead between invocations.
//
// Allocations never move: a span handed out stays valid until the next
// reset(). reset() keeps the high-water-mark capacity, so a steady-state
// brick loop performs zero heap allocations.
//
// Not thread-safe; each pool worker owns one arena.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace brickdl {

class Arena {
 public:
  explicit Arena(size_t initial_floats = 1 << 14)
      : min_block_floats_(std::max<size_t>(initial_floats, 1)) {}

  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized span of `n` floats, valid until reset().
  std::span<float> alloc(size_t n) {
    if (blocks_.empty() || blocks_.back().cap - blocks_.back().used < n) {
      grow(n);
    }
    Block& b = blocks_.back();
    float* p = b.data.get() + b.used;
    b.used += n;
    return {p, n};
  }

  /// Zero-filled span of `n` floats, valid until reset().
  std::span<float> alloc_zeroed(size_t n) {
    std::span<float> s = alloc(n);
    std::memset(s.data(), 0, n * sizeof(float));
    return s;
  }

  /// Invalidate every outstanding allocation and rewind. If the last cycle
  /// spilled into multiple blocks, they are coalesced into one slab of the
  /// combined capacity so the next cycle bump-allocates from a single block.
  void reset() {
    if (blocks_.size() > 1) {
      size_t total = 0;
      for (const Block& b : blocks_) total += b.cap;
      blocks_.clear();
      blocks_.push_back(Block{std::make_unique<float[]>(total), total, 0});
    } else if (!blocks_.empty()) {
      blocks_.back().used = 0;
    }
  }

 private:
  struct Block {
    std::unique_ptr<float[]> data;
    size_t cap = 0;
    size_t used = 0;
  };

  void grow(size_t n) {
    // Geometric growth bounds the number of blocks (and thus coalescing
    // copies... there are none: reset() discards contents) per cycle.
    size_t cap = min_block_floats_;
    if (!blocks_.empty()) cap = std::max(cap, 2 * blocks_.back().cap);
    cap = std::max(cap, n);
    blocks_.push_back(Block{std::make_unique<float[]>(cap), cap, 0});
  }

  size_t min_block_floats_;
  std::vector<Block> blocks_;
};

}  // namespace brickdl
