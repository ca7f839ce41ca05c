#include "sim/memsim.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace brickdl {

TxnCounters TxnCounters::operator-(const TxnCounters& o) const {
  TxnCounters r;
  r.l1 = l1 - o.l1;
  r.l2 = l2 - o.l2;
  r.dram_read = dram_read - o.dram_read;
  r.dram_write = dram_write - o.dram_write;
  r.atomics_compulsory = atomics_compulsory - o.atomics_compulsory;
  r.atomics_conflict = atomics_conflict - o.atomics_conflict;
  return r;
}

TxnCounters& TxnCounters::operator+=(const TxnCounters& o) {
  l1 += o.l1;
  l2 += o.l2;
  dram_read += o.dram_read;
  dram_write += o.dram_write;
  atomics_compulsory += o.atomics_compulsory;
  atomics_conflict += o.atomics_conflict;
  return *this;
}

namespace {

/// Sets from which the L2 runs on shard threads: the smallest L2 timed
/// (1 MB, 16-way, 32 B lines). Sharding halved the simulation time at every
/// size timed, 1 MB to 80 MB, metadata in host caches or not, since the
/// emitter no longer applies the L2 probes itself (EXPERIMENTS.md). Smaller
/// L2s — the unit-test geometries — stay inline.
constexpr i64 kShardMinSets = 2048;

/// L2 shard threads for this geometry on this host: none for small L2s or
/// on a single-thread host, else one or two (a power of two, as the cache
/// partitions require), leaving a hardware thread to the emitter.
int l2_shard_count(const CacheModel& l2) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (l2.num_sets() < kShardMinSets || hw < 2) return 0;
  return hw >= 3 ? 2 : 1;
}

// A ring entry packs one L2 probe: set in bits 0–31, quotient in bits
// 32–61 (a quotient is below 2^32 / num_sets, and sharded L2s have at
// least kShardMinSets sets), the write and fill flags in bits 62 and 63.
constexpr u64 kProbeWrite = u64{1} << 62;
constexpr u64 kProbeFill = u64{1} << 63;
constexpr u64 kProbeQuotMask = (u64{1} << 30) - 1;
constexpr u32 kProbeAhead = 8;

/// Spins briefly, then sleeps, until `a` no longer holds `old`; returns the
/// new value (acquire).
u32 wait_change(const std::atomic<u32>& a, u32 old) {
  for (int spin = 0; spin < 2048; ++spin) {
    const u32 v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    cpu_pause();
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

}  // namespace

/// One L2 shard: a bounded single-producer/single-consumer ring of packed
/// probes, preallocated and reused. The producer is whichever thread holds
/// the simulator lock; indices count probes modulo 2^32. The consumer side
/// (head, tally) and the producer side (tail, cursors) sit on separate host
/// cache lines.
struct alignas(64) MemoryHierarchySim::L2Shard {
  static constexpr u32 kCapacity = 1u << 13;  ///< probes (64 KB)
  static constexpr u32 kPublishEvery = 512;   ///< probes per tail store

  // Shard thread.
  std::atomic<u32> head{0};  ///< probes applied
  L2Tally tally;
  // Producer, published to the shard thread.
  alignas(64) std::atomic<u32> tail{0};  ///< probes published
  // Producer-private cursors (the shard thread spins on `tail`, so these
  // must not share its host cache line).
  alignas(64) u32 written = 0;  ///< probes in the ring (tail <= written)
  u32 head_seen = 0;            ///< producer's last view of head
  // Written once by the producer, when stopping.
  alignas(64) std::atomic<bool> stop{false};
  std::thread thread;
  alignas(64) u64 ring[kCapacity];

  void publish() {
    if (tail.load(std::memory_order_relaxed) == written) return;
    tail.store(written, std::memory_order_release);
    tail.notify_one();
  }

  void push(u64 probe) {
    if (written - head_seen == kCapacity) {
      publish();
      head_seen = wait_change(head, head_seen);
    }
    ring[written % kCapacity] = probe;
    if (++written % kPublishEvery == 0) publish();
  }
};

MemoryHierarchySim::MemoryHierarchySim(const MachineParams& params)
    : params_(params),
      l2_(params.l2_bytes, params.l2_ways, params.line_bytes),
      l2_split_(l2_.splitter()),
      shard_target_(l2_shard_count(l2_)) {
  l2_.set_partitions(std::max(1, shard_target_));
  l1_.reserve(static_cast<size_t>(params.concurrent_blocks));
  for (int w = 0; w < params.concurrent_blocks; ++w) {
    l1_.emplace_back(params.l1_bytes, params.l1_ways, params.line_bytes);
  }
}

MemoryHierarchySim::~MemoryHierarchySim() {
  drain();
  stop_shards();
}

void MemoryHierarchySim::stop_shards() {
  // Every ring is drained, so any tail the shard sees from here on means
  // stop.
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_release);
    shard->tail.store(shard->written + 1, std::memory_order_release);
    shard->tail.notify_one();
  }
  for (auto& shard : shards_) shard->thread.join();
  shards_.clear();
}

void MemoryHierarchySim::start_shards() {
  shards_.reserve(static_cast<size_t>(shard_target_));
  try {
    for (int i = 0; i < shard_target_; ++i) {
      auto shard = std::make_unique<L2Shard>();
      L2Shard* s = shard.get();
      shard->thread = std::thread([this, s] { run_shard(*s); });
      shards_.push_back(std::move(shard));
    }
  } catch (const std::exception&) {
    // No thread (std::system_error) or memory to spare: the started shards
    // hold no probes yet, so stop them and keep the L2 inline for good.
    stop_shards();
    shard_target_ = 0;
  }
}

void MemoryHierarchySim::run_shard(L2Shard& shard) {
  u32 head = 0;
  for (;;) {
    const u32 tail = wait_change(shard.tail, head);
    if (shard.stop.load(std::memory_order_acquire)) return;
    for (u32 i = head; i != tail; ++i) {
      // The upcoming probes are known: pull the set block 8 probes ahead
      // toward this core, hiding host-memory latency on the 7 MB of blocks.
      if (tail - i > kProbeAhead) {
        l2_.prefetch_set(static_cast<u32>(
            shard.ring[(i + kProbeAhead) % L2Shard::kCapacity]));
      }
      const u64 probe = shard.ring[i % L2Shard::kCapacity];
      apply_l2(shard.tally, static_cast<u32>(probe),
               static_cast<u32>((probe >> 32) & kProbeQuotMask),
               (probe & kProbeWrite) != 0, (probe & kProbeFill) != 0);
    }
    head = tail;
    shard.head.store(head, std::memory_order_release);
    shard.head.notify_one();
  }
}

void MemoryHierarchySim::drain() const {
  for (const auto& shard : shards_) shard->publish();
  for (const auto& shard : shards_) {
    while (shard->head_seen != shard->written) {
      shard->head_seen = wait_change(shard->head, shard->head_seen);
    }
  }
}

int MemoryHierarchySim::l2_shard_threads() const {
  std::lock_guard<SpinLock> lock(mu_);
  return static_cast<int>(shards_.size());
}

u64 MemoryHierarchySim::allocate(const std::string& name, i64 bytes) {
  (void)name;  // names aid debugging; the model only needs disjoint ranges
  std::lock_guard<SpinLock> lock(mu_);
  BDL_CHECK(bytes >= 0);
  const u64 base = next_addr_;
  next_addr_ += static_cast<u64>(round_up(bytes, params_.line_bytes));
  // Guard line between allocations catches off-by-one range emissions.
  next_addr_ += static_cast<u64>(params_.line_bytes);
  return base;
}

bool MemoryHierarchySim::is_discarded(u64 line,
                                      std::pair<u64, u64>& memo) const {
  // Dirty evictions cluster within one dead tensor, so remember the last
  // matching range before binary-searching. Ranges are never removed, so a
  // cached positive can never go stale. (Caller holds mu_ or is the shard
  // owning `memo`; discarded_ only changes while every shard is drained.)
  if (line >= memo.first && line <= memo.second) return true;
  auto it = std::upper_bound(
      discarded_.begin(), discarded_.end(), line,
      [](u64 l, const std::pair<u64, u64>& range) { return l < range.first; });
  if (it != discarded_.begin() && line <= std::prev(it)->second) {
    memo = *std::prev(it);
    return true;
  }
  return false;
}

void MemoryHierarchySim::l2_access(u64 line, bool write, bool fill_on_miss) {
  ++counters_.l2;
  size_t set;
  u32 quot;
  l2_split_.split_cached(CacheModel::LineSplitter::check_line(line), &set,
                         &quot);
  if (shard_target_ > 0 && shards_.empty()) start_shards();
  if (shards_.empty()) {
    apply_l2(inline_tally_, set, quot, write, fill_on_miss);
    return;
  }
  shards_[static_cast<size_t>(l2_.partition_of(set))]->push(
      static_cast<u64>(set) | static_cast<u64>(quot) << 32 |
      (write ? kProbeWrite : 0) | (fill_on_miss ? kProbeFill : 0));
}

void MemoryHierarchySim::apply_l2(L2Tally& tally, size_t set, u32 quot,
                                  bool write, bool fill_on_miss) {
  const auto result = l2_.access_split(set, quot, write);
  // Full-line writes validate in place (no fetch) — the GPU write-allocate
  // path does not read DRAM when the store covers the whole sector.
  if (!result.hit && fill_on_miss) ++tally.dram_read;
  if (result.evicted_dirty &&
      !is_discarded(result.evicted_line, tally.discard_hit)) {
    ++tally.dram_write;
  }
}

void MemoryHierarchySim::access(int worker, u64 addr, i64 bytes, bool write) {
  BDL_CHECK(worker >= 0 && worker < num_workers());
  std::lock_guard<SpinLock> lock(mu_);
  access_unlocked(worker, addr, bytes, write);
}

void MemoryHierarchySim::access_unlocked(int worker, u64 addr, i64 bytes,
                                         bool write) {
  if (bytes <= 0) return;
  const u64 lb = static_cast<u64>(params_.line_bytes);
  const u64 first = addr / lb;
  const u64 last = (addr + static_cast<u64>(bytes) - 1) / lb;
  CacheModel& l1 = l1_[static_cast<size_t>(worker)];
  // Lines in [full_lo, full_hi) are covered end-to-end by this access; a
  // write to such a line validates in place (no fetch). Hoisted out of the
  // loop: equivalent to checking addr <= line*lb && addr+bytes >= (line+1)*lb
  // per line.
  const u64 full_lo = write ? (addr + lb - 1) / lb : 0;
  const u64 full_hi = write ? (addr + static_cast<u64>(bytes)) / lb : 0;
  counters_.l1 += static_cast<i64>(last - first + 1);
  for (u64 line = first; line <= last; ++line) {
    // Probe-ahead: the L1 set metadata for the next line of this run.
    if (line < last) l1.prefetch(line + 1);
    const bool full_line = write && line >= full_lo && line < full_hi;
    const auto r1 = l1.access(line, write);
    if (r1.evicted_dirty) {
      l2_access(r1.evicted_line, /*write=*/true, /*fill_on_miss=*/false);
    }
    if (!r1.hit && !full_line) l2_access(line, /*write=*/false, true);
  }
}

void MemoryHierarchySim::invocation_begin(int worker) {
  BDL_CHECK(worker >= 0 && worker < num_workers());
  std::lock_guard<SpinLock> lock(mu_);
  l1_[static_cast<size_t>(worker)].flush_visit(
      [this](u64 line) { l2_access(line, /*write=*/true, false); });
}

void MemoryHierarchySim::count_l2_resident_reads(i64 lines) {
  std::lock_guard<SpinLock> lock(mu_);
  counters_.l1 += lines;
  counters_.l2 += lines;
}

void MemoryHierarchySim::count_atomics(i64 compulsory, i64 conflict) {
  std::lock_guard<SpinLock> lock(mu_);
  counters_.atomics_compulsory += compulsory;
  counters_.atomics_conflict += conflict;
}

void MemoryHierarchySim::discard(u64 addr, i64 bytes) {
  if (bytes <= 0) return;
  std::lock_guard<SpinLock> lock(mu_);
  drain();  // the shards read discarded_
  const u64 first = addr / static_cast<u64>(params_.line_bytes);
  const u64 last =
      (addr + static_cast<u64>(bytes) - 1) / static_cast<u64>(params_.line_bytes);
  const auto pos = std::upper_bound(
      discarded_.begin(), discarded_.end(), first,
      [](u64 l, const std::pair<u64, u64>& range) { return l < range.first; });
  discarded_.insert(pos, {first, last});
}

void MemoryHierarchySim::flush() {
  std::lock_guard<SpinLock> lock(mu_);
  for (auto& l1 : l1_) {
    l1.flush_visit([this](u64 line) { l2_access(line, /*write=*/true, false); });
  }
  drain();
  l2_.flush_visit([this](u64 line) {
    if (!is_discarded(line, inline_tally_.discard_hit)) {
      ++inline_tally_.dram_write;
    }
  });
}

TxnCounters MemoryHierarchySim::counters() const {
  std::lock_guard<SpinLock> lock(mu_);
  drain();
  TxnCounters c = counters_;
  c.dram_read += inline_tally_.dram_read;
  c.dram_write += inline_tally_.dram_write;
  for (const auto& shard : shards_) {
    c.dram_read += shard->tally.dram_read;
    c.dram_write += shard->tally.dram_write;
  }
  return c;
}

void MemoryHierarchySim::reset_counters() {
  std::lock_guard<SpinLock> lock(mu_);
  drain();
  counters_ = TxnCounters{};
  inline_tally_.dram_read = inline_tally_.dram_write = 0;
  for (auto& shard : shards_) {
    shard->tally.dram_read = shard->tally.dram_write = 0;
  }
}

}  // namespace brickdl
