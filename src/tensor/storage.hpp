// Owned float storage for activations, and the best-fit free list that
// recycles it.
//
// An activation's storage outlives its values: once the last consumer has
// read a tensor, NumericBackend hands the block back to a StorageFreeList
// and the next registered tensor of at most that size adopts it as is —
// never cleared, because every executor writes a window before it reads it
// (DESIGN.md §9.7). Under AddressSanitizer a block on the free list is
// poisoned, so a read of a dead activation through a stale pointer trips
// ASan instead of returning another tensor's values.
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "util/common.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace brickdl {

/// An owned block of floats. Copies are deep; a moved-from block is empty.
class Storage {
 public:
  Storage() = default;

  /// `floats` floats of indeterminate value. A large block comes straight
  /// from the OS, so its pages are only committed when first written.
  static Storage uninitialized(size_t floats) {
    Storage s;
    s.data_.reset(new float[floats]);
    s.size_ = floats;
    return s;
  }
  static Storage zeros(size_t floats) {
    Storage s = uninitialized(floats);
    std::memset(s.data(), 0, floats * sizeof(float));
    return s;
  }

  Storage(const Storage& other) : Storage(uninitialized(other.size_)) {
    std::memcpy(data(), other.data(), size_ * sizeof(float));
  }
  Storage& operator=(const Storage& other) {
    if (this != &other) *this = Storage(other);
    return *this;
  }
  Storage(Storage&& other) noexcept
      : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0)) {}
  Storage& operator=(Storage&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  /// Capacity in floats.
  size_t size() const { return size_; }
  i64 bytes() const { return static_cast<i64>(size_ * sizeof(float)); }

 private:
  std::unique_ptr<float[]> data_;
  size_t size_ = 0;
};

/// Best-fit free list of storage blocks. Not thread-safe.
class StorageFreeList {
 public:
  StorageFreeList() = default;
  StorageFreeList(const StorageFreeList&) = delete;
  StorageFreeList& operator=(const StorageFreeList&) = delete;
  ~StorageFreeList() {
    for (const auto& entry : blocks_) unpoison(entry.second);
  }

  /// The smallest free block of at least `floats` floats, or a new
  /// uninitialized one. Its contents are whatever its last owner left.
  Storage take(size_t floats) {
    const auto it = blocks_.lower_bound(floats);
    if (it == blocks_.end()) return Storage::uninitialized(floats);
    Storage block = std::move(it->second);
    blocks_.erase(it);
    free_bytes_ -= block.bytes();
    unpoison(block);
    return block;
  }

  /// Return a block; it is poisoned until taken again.
  void give(Storage block) {
    if (block.size() == 0) return;
    poison(block);
    free_bytes_ += block.bytes();
    blocks_.emplace(block.size(), std::move(block));
  }

  i64 free_bytes() const { return free_bytes_; }

 private:
  static void poison([[maybe_unused]] const Storage& block) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(block.data(), block.bytes());
#endif
  }
  static void unpoison([[maybe_unused]] const Storage& block) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(block.data(), block.bytes());
#endif
  }

  std::multimap<size_t, Storage> blocks_;  // keyed by capacity in floats
  i64 free_bytes_ = 0;
};

}  // namespace brickdl
