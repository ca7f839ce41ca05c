// MemoryHierarchySim: the GPU memory-system substrate.
//
// Executors running in model mode emit their real access streams here at
// cache-line granularity. The simulator maintains one L1 per worker (a worker
// models a resident thread block; L1 starts cold at each kernel invocation,
// since GPU L1s are not coherent across blocks) and one shared L2. Counters
// correspond to the Nsight metrics the paper collects: global (L1), L2 and
// DRAM transactions, plus atomic-operation counts (§4.2–4.4, Fig. 9).
//
// L2 shards (DESIGN.md §9.4). When the L2 has at least 2,048 sets (1 MB at
// the A100's 16 ways; the A100 itself has 81,920) and the host has a spare
// hardware thread, the L2 runs on up to two lazily started shard threads,
// one per CacheModel partition (interleaved runs of sets). The emitting
// thread — whichever holds the lock — keeps window emission, the L1 probes,
// the L1 and L2 counts and the set/quotient split of each L2 probe, and
// appends the probe to its set's shard ring; each shard applies its probes
// in arrival order and counts its own DRAM reads and writes. Sets are
// independent and each set still sees its probes in the original global
// order, so every counter is bit-identical to the serial model, provided
// the L2 state and the DRAM counts are only observed with all rings
// drained: `discard()` (the shards read the discard list), `counters()`,
// `reset_counters()`, `flush()` and the destructor drain first. One routine
// (`apply_l2`) applies a probe both inline and on a shard.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/machine.hpp"
#include "util/spinlock.hpp"

namespace brickdl {

struct TxnCounters {
  i64 l1 = 0;          ///< global/L1 transactions (all line touches)
  i64 l2 = 0;          ///< L1 misses reaching L2 (plus L1 writebacks)
  i64 dram_read = 0;   ///< L2 miss fills
  i64 dram_write = 0;  ///< L2 dirty writebacks (incl. flush)
  i64 atomics_compulsory = 0;
  i64 atomics_conflict = 0;

  i64 dram() const { return dram_read + dram_write; }
  i64 atomics() const { return atomics_compulsory + atomics_conflict; }

  TxnCounters operator-(const TxnCounters& o) const;
  TxnCounters& operator+=(const TxnCounters& o);
};

class MemoryHierarchySim {
 public:
  explicit MemoryHierarchySim(const MachineParams& params);
  ~MemoryHierarchySim();
  MemoryHierarchySim(const MemoryHierarchySim&) = delete;
  MemoryHierarchySim& operator=(const MemoryHierarchySim&) = delete;

  const MachineParams& params() const { return params_; }
  int num_workers() const { return params_.concurrent_blocks; }

  /// Reserve a line-aligned address range for a named tensor/buffer.
  u64 allocate(const std::string& name, i64 bytes);

  /// Emit one access of `bytes` starting at `addr` from `worker`.
  void access(int worker, u64 addr, i64 bytes, bool write);

  /// Batched emission: holds the simulator lock across many access() calls,
  /// so per-window emitters (tens of millions of short runs per bench run)
  /// pay one lock acquisition per window instead of one per run. The stream
  /// is simulated exactly as the equivalent sequence of access() calls.
  /// While a Batch is live, its thread must not call any other simulator
  /// method (self-deadlock); other threads simply wait on the lock.
  class Batch {
   public:
    Batch(MemoryHierarchySim& sim, int worker) : sim_(sim), worker_(worker) {
      BDL_CHECK(worker >= 0 && worker < sim.num_workers());
      sim_.mu_.lock();
    }
    ~Batch() { sim_.mu_.unlock(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void access(u64 addr, i64 bytes, bool write) {
      sim_.access_unlocked(worker_, addr, bytes, write);
    }

    /// Hint that `addr` is about to be accessed: pulls the worker's L1 set
    /// metadata for its line toward the host CPU (L2 blocks belong to the
    /// shard threads). Purely a performance hint — never changes any
    /// counter — so callers may guess sloppily (e.g. assume the next run
    /// continues a stride even near band edges).
    void prefetch(u64 addr) {
      const u64 line = addr / static_cast<u64>(sim_.params_.line_bytes);
      sim_.l1_[static_cast<size_t>(worker_)].prefetch(line);
    }

   private:
    MemoryHierarchySim& sim_;
    int worker_;
  };

  /// New kernel invocation on `worker`: its L1 starts cold. Dirty L1 lines
  /// from the previous invocation are written back into L2.
  void invocation_begin(int worker);

  /// Count atomic operations (they synchronize at L2 on NVIDIA GPUs; we track
  /// them separately from data transactions, as Nsight does).
  void count_atomics(i64 compulsory, i64 conflict);

  /// Account `lines` of reads that are known to be L2-resident without
  /// probing the cache model: each line costs one L1 and one L2 transaction
  /// and never reaches DRAM. Used for repeated weight streams, whose
  /// footprint stays L2-resident across a layer's brick invocations — per-line
  /// simulation of those re-reads would dominate runtime while changing
  /// nothing (see DESIGN.md §5.3).
  void count_l2_resident_reads(i64 lines);

  /// Mark an address range dead — models merged execution discarding
  /// intermediate buffers that will never be read again (their storage is
  /// reused, not persisted). Implemented lazily: dead lines may keep
  /// occupying cache (as they would on real hardware) but their eventual
  /// dirty evictions are not charged as DRAM writebacks. The bump allocator
  /// never reuses addresses, so stale cached copies can never be re-read.
  /// Discarded ranges must not overlap (each dead buffer is discarded once).
  void discard(u64 addr, i64 bytes);

  /// Write back all dirty lines (L1s then L2); counts DRAM writes. Harnesses
  /// call this at the end of a measured region so buffered output traffic is
  /// charged comparably across executors.
  void flush();

  /// Exact at any point: both drain the L2 shards first.
  TxnCounters counters() const;
  void reset_counters();

  /// Running L2 shard threads: 0 until the first L2 probe, and always 0 on
  /// small L2 geometries or single-thread hosts (the L2 then runs inline).
  int l2_shard_threads() const;

 private:
  /// What one L2 prober owns: its DRAM counts and its discard-lookup memo.
  struct L2Tally {
    i64 dram_read = 0;
    i64 dram_write = 0;
    std::pair<u64, u64> discard_hit{1, 0};  ///< memo, empty range
  };
  struct L2Shard;

  void l2_access(u64 line, bool write, bool fill_on_miss);
  void apply_l2(L2Tally& tally, size_t set, u32 quot, bool write,
                bool fill_on_miss);
  void access_unlocked(int worker, u64 addr, i64 bytes, bool write);
  bool is_discarded(u64 line, std::pair<u64, u64>& memo) const;
  void start_shards();
  void stop_shards();
  void run_shard(L2Shard& shard);
  /// Wait until every shard has applied every probe handed to it (caller
  /// holds mu_); afterwards the L2 and all tallies may be read or written.
  void drain() const;

  MachineParams params_;
  // Spinlock, not std::mutex: the critical sections are a handful of cache
  // probes, and access() is called tens of millions of times per bench run
  // (often from a single thread, where an uncontended spinlock is ~5x
  // cheaper than a mutex).
  mutable SpinLock mu_;
  // Read by the shard threads: the L2 (each shard writes only its own
  // partition's blocks) and the discard list (written only when drained).
  // Kept off the host cache lines the emitter writes.
  alignas(64) CacheModel l2_;
  std::vector<std::pair<u64, u64>> discarded_;  ///< [first, last] line ranges, sorted
  // Emitter state.
  alignas(64) CacheModel::LineSplitter l2_split_;
  std::vector<CacheModel> l1_;
  TxnCounters counters_;  ///< all but the DRAM counts, which the tallies hold
  L2Tally inline_tally_;  ///< probes applied on the emitting thread
  u64 next_addr_ = 0;
  int shard_target_ = 0;  ///< shards the geometry and host call for
  std::vector<std::unique_ptr<L2Shard>> shards_;  ///< started lazily
};

}  // namespace brickdl
