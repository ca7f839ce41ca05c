// Simulator exactness suite (DESIGN.md §5.3, §9.4).
//
//  * SimGolden: the two `fig07_end_to_end --quick` BrickDL models, built and
//    run exactly as that bench builds them, must reproduce the committed
//    transaction counters field for field. Every modeled figure is a
//    function of these counters, so any change to the simulator, the
//    executors' emission order or the planner that moves a single
//    transaction fails here. The `fig08_resnet50_subgraphs --quick`
//    subgraphs, each run alone as vendor, padded and memoized, are pinned
//    the same way, and so are the L1, L2 and DRAM transactions that
//    `fig09_resnet50_datamovement --quick` prints for them.
//  * MemSimShards: seeded randomized streams on the sharded L2 geometries
//    (the A100's 16-bit tags and a 20 MB L2's 32-bit tags) compared after
//    every step, and at random points mid-step, against an in-test
//    single-threaded reference built from plain CacheModels.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "graph/rewrite.hpp"
#include "models/models.hpp"
#include "sim/memsim.hpp"
#include "util/rng.hpp"

namespace brickdl {
namespace {

ModelConfig quick_config(i64 batch, i64 spatial, i64 width_div) {
  ModelConfig c;
  c.batch = batch;
  c.spatial = spatial;
  c.width_div = width_div;
  c.classes = 100;
  return c;
}

/// The BrickDL bar of `fig07_end_to_end --quick`: conv+pointwise rewrite,
/// then the engine with the bench's `max_layers`, on a fresh A100 simulator.
TxnCounters fig07_quick_counters(const Graph& graph, int max_layers) {
  const Graph fused = fuse_conv_pointwise(graph);
  EngineOptions options;
  options.partition.max_layers = max_layers;
  Engine engine(fused, options);
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(fused, sim);
  Result<EngineResult> result = engine.run_checked(backend);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  sim.flush();
  return sim.counters();
}

void expect_counters(const TxnCounters& got, const TxnCounters& want) {
  EXPECT_EQ(got.l1, want.l1);
  EXPECT_EQ(got.l2, want.l2);
  EXPECT_EQ(got.dram_read, want.dram_read);
  EXPECT_EQ(got.dram_write, want.dram_write);
  EXPECT_EQ(got.atomics_compulsory, want.atomics_compulsory);
  EXPECT_EQ(got.atomics_conflict, want.atomics_conflict);
}

TEST(SimGolden, Fig07QuickResNet50) {
  TxnCounters want;
  want.l1 = 31589589;
  want.l2 = 28648002;
  want.dram_read = 3271137;
  want.dram_write = 4562391;
  expect_counters(
      fig07_quick_counters(build_resnet50(quick_config(16, 112, 2)), 12),
      want);
}

TEST(SimGolden, Fig07QuickDarkNet53) {
  TxnCounters want;
  want.l1 = 27065355;
  want.l2 = 25642264;
  want.dram_read = 2014432;
  want.dram_write = 3839191;
  expect_counters(
      fig07_quick_counters(build_darknet53(quick_config(16, 224, 4)), 6),
      want);
}

/// One run of `fig08_resnet50_subgraphs`' per-subgraph comparison: `plan`
/// re-planned at its brick side with `strategy` forced (vendor keeps the
/// plan), run alone on a fresh A100 simulator with cold io tensors.
struct SubgraphCounters {
  TxnCounters txns;
  i64 invocations = 0;
};

SubgraphCounters fig08_subgraph_counters(const Graph& graph,
                                         const PlannedSubgraph& plan,
                                         Strategy strategy,
                                         const EngineOptions& options) {
  PlannedSubgraph run =
      strategy == Strategy::kVendor
          ? plan
          : plan_subgraph(graph, plan.sg, options.partition, plan.brick_side);
  run.strategy = strategy;
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  std::unordered_map<int, TensorId> io;
  for (int ext : run.sg.external_inputs) {
    io[ext] = backend.register_tensor(graph.node(ext).out_shape,
                                      Layout::kCanonical, {}, "ext");
  }
  const Node& terminal = graph.node(run.sg.terminal());
  const bool merged = strategy != Strategy::kVendor;
  const TensorId out = backend.register_tensor(
      terminal.out_shape, merged ? Layout::kBricked : Layout::kCanonical,
      merged ? run.brick_extent : Dims{}, "out");
  const Status status =
      run_planned_subgraph_checked(graph, run, backend, io, out, options);
  EXPECT_TRUE(status.ok()) << status.to_string();
  sim.flush();
  return {sim.counters(), backend.tally().invocations};
}

/// `fig08_resnet50_subgraphs --quick`: every merged subgraph of the default
/// plan, each run as cuDNN-tiled vendor, padded and memoized bricks. Rows
/// hold {l1, l2, dram_read, dram_write, atomics_compulsory,
/// atomics_conflict, invocations}.
TEST(SimGolden, Fig08QuickResNet50Subgraphs) {
  constexpr i64 kWant[6][3][7] = {
      {{2203808, 2203808, 407846, 903168, 0, 0, 576},
       {2422156, 2422156, 301350, 100352, 0, 0, 294},
       {2773072, 2773072, 309542, 100352, 1764, 300, 882}},
      {{3883520, 3883520, 126045, 2007040, 0, 0, 512},
       {4290688, 4290688, 100928, 401408, 0, 0, 784},
       {4100224, 4100224, 137011, 1000010, 1568, 138, 784}},
      {{3680768, 3680768, 422570, 1605632, 0, 0, 448},
       {4778048, 4778048, 401952, 401408, 0, 0, 686},
       {3896384, 3896384, 506655, 826800, 1372, 120, 686}},
      {{3680768, 3680768, 422570, 1605632, 0, 0, 448},
       {4778048, 4778048, 401952, 401408, 0, 0, 686},
       {3896384, 3896384, 506655, 826800, 1372, 120, 686}},
      {{2244608, 2012576, 434688, 652288, 0, 0, 128},
       {2806272, 2806272, 253440, 114688, 0, 0, 512},
       {3311616, 3125248, 404992, 114688, 1552, 112, 776}},
      {{3200, 642, 30, 15, 0, 0, 16},
       {950, 454, 215, 200, 0, 0, 4},
       {950, 454, 215, 200, 8, 12, 4}},
  };
  const Graph graph = build_resnet50(quick_config(16, 224, 4));
  const EngineOptions options;
  const Partition partition = partition_graph(graph, options.partition);
  std::vector<const PlannedSubgraph*> merged;
  for (const PlannedSubgraph& planned : partition.subgraphs) {
    if (planned.strategy != Strategy::kVendor) merged.push_back(&planned);
  }
  ASSERT_EQ(merged.size(), std::size(kWant));
  const Strategy kVariants[] = {Strategy::kVendor, Strategy::kPadded,
                                Strategy::kMemoized};
  for (size_t i = 0; i < merged.size(); ++i) {
    for (size_t v = 0; v < std::size(kVariants); ++v) {
      SCOPED_TRACE("subgraph " + std::to_string(i + 1) + " " +
                   strategy_name(kVariants[v]));
      const SubgraphCounters got =
          fig08_subgraph_counters(graph, *merged[i], kVariants[v], options);
      const i64* w = kWant[i][v];
      TxnCounters want;
      want.l1 = w[0];
      want.l2 = w[1];
      want.dram_read = w[2];
      want.dram_write = w[3];
      want.atomics_compulsory = w[4];
      want.atomics_conflict = w[5];
      expect_counters(got.txns, want);
      EXPECT_EQ(got.invocations, w[6]);
    }
  }
}

/// `fig09_resnet50_datamovement --quick`: the first 7 merged subgraphs of
/// the same plan as fig08 (it merges 6), each run as cuDNN-tiled vendor,
/// padded and memoized bricks. Rows hold the {L1, L2, DRAM} transactions the
/// figure prints, per variant; the vendor row is the base of its ratios.
TEST(SimGolden, Fig09QuickResNet50DataMovement) {
  constexpr i64 kWant[6][3][3] = {
      {{2203808, 2203808, 1311014},
       {2422156, 2422156, 401702},
       {2773072, 2773072, 409894}},
      {{3883520, 3883520, 2133085},
       {4290688, 4290688, 502336},
       {4100224, 4100224, 1137021}},
      {{3680768, 3680768, 2028202},
       {4778048, 4778048, 803360},
       {3896384, 3896384, 1333455}},
      {{3680768, 3680768, 2028202},
       {4778048, 4778048, 803360},
       {3896384, 3896384, 1333455}},
      {{2244608, 2012576, 1086976},
       {2806272, 2806272, 368128},
       {3311616, 3125248, 519680}},
      {{3200, 642, 45},
       {950, 454, 415},
       {950, 454, 415}},
  };
  const Graph graph = build_resnet50(quick_config(16, 224, 4));
  const EngineOptions options;
  const Partition partition = partition_graph(graph, options.partition);
  std::vector<const PlannedSubgraph*> merged;
  for (const PlannedSubgraph& planned : partition.subgraphs) {
    if (planned.strategy == Strategy::kVendor) continue;
    merged.push_back(&planned);
    if (merged.size() == 7) break;
  }
  ASSERT_EQ(merged.size(), std::size(kWant));
  const Strategy kVariants[] = {Strategy::kVendor, Strategy::kPadded,
                                Strategy::kMemoized};
  for (size_t i = 0; i < merged.size(); ++i) {
    for (size_t v = 0; v < std::size(kVariants); ++v) {
      SCOPED_TRACE("subgraph " + std::to_string(i + 1) + " " +
                   strategy_name(kVariants[v]));
      const TxnCounters got =
          fig08_subgraph_counters(graph, *merged[i], kVariants[v], options)
              .txns;
      EXPECT_EQ(got.l1, kWant[i][v][0]);
      EXPECT_EQ(got.l2, kWant[i][v][1]);
      EXPECT_EQ(got.dram(), kWant[i][v][2]);
    }
  }
}

/// The serial memory hierarchy spelled out from plain CacheModels: one L1
/// per worker and one L2, both probed by line index, and a discard list
/// consulted at the moment a dirty line leaves the L2.
class SerialHierarchy {
 public:
  explicit SerialHierarchy(const MachineParams& p)
      : lb_(static_cast<u64>(p.line_bytes)),
        l2_(p.l2_bytes, p.l2_ways, p.line_bytes) {
    for (int w = 0; w < p.concurrent_blocks; ++w) {
      l1_.emplace_back(p.l1_bytes, p.l1_ways, p.line_bytes);
    }
  }

  void access(int worker, u64 addr, i64 bytes, bool write) {
    if (bytes <= 0) return;
    const u64 end = addr + static_cast<u64>(bytes);
    for (u64 line = addr / lb_; line <= (end - 1) / lb_; ++line) {
      ++c_.l1;
      const bool full_line =
          write && addr <= line * lb_ && end >= (line + 1) * lb_;
      const auto r = l1_[static_cast<size_t>(worker)].access(line, write);
      if (r.evicted_dirty) l2(r.evicted_line, /*write=*/true, false);
      if (!r.hit && !full_line) l2(line, /*write=*/false, true);
    }
  }

  void invocation_begin(int worker) {
    std::vector<u64> dirty;
    l1_[static_cast<size_t>(worker)].flush(&dirty);
    for (u64 line : dirty) l2(line, /*write=*/true, false);
  }

  void discard(u64 addr, i64 bytes) {
    discarded_.push_back(
        {addr / lb_, (addr + static_cast<u64>(bytes) - 1) / lb_});
  }

  void flush() {
    for (size_t w = 0; w < l1_.size(); ++w) {
      invocation_begin(static_cast<int>(w));
    }
    std::vector<u64> dirty;
    l2_.flush(&dirty);
    for (u64 line : dirty) {
      if (!discarded(line)) ++c_.dram_write;
    }
  }

  const TxnCounters& counters() const { return c_; }
  void reset_counters() { c_ = TxnCounters{}; }

 private:
  void l2(u64 line, bool write, bool fill_on_miss) {
    ++c_.l2;
    const auto r = l2_.access(line, write);
    if (!r.hit && fill_on_miss) ++c_.dram_read;
    if (r.evicted_dirty && !discarded(r.evicted_line)) ++c_.dram_write;
  }

  bool discarded(u64 line) const {
    for (const auto& [first, last] : discarded_) {
      if (line >= first && line <= last) return true;
    }
    return false;
  }

  u64 lb_;
  CacheModel l2_;
  std::vector<CacheModel> l1_;
  std::vector<std::pair<u64, u64>> discarded_;
  TxnCounters c_;
};

// A seeded stream on a sharded L2 geometry checked against the serial
// reference at every counters() read. The traffic aliases a few hundred L2
// sets (spanning both partitions), so dirty lines are evicted all the time:
// lines of a discarded tensor leave the L2 both before its discard() call
// (charged) and after it (not charged), with probes still queued on the
// shards at the call.
void expect_matches_serial(const MachineParams& params, u64 seed) {
  MemoryHierarchySim sim(params);
  SerialHierarchy ref(params);
  const u64 lb = static_cast<u64>(params.line_bytes);
  const u64 num_sets = static_cast<u64>(
      params.l2_bytes / (params.l2_ways * params.line_bytes));
  constexpr int kWorkers = 4;
  constexpr u64 kRows = 8;        // L2 aliases per tensor and set
  constexpr u64 kHotSets = 320;   // five partition runs of 64 sets
  const i64 tensor_bytes = static_cast<i64>(kRows * num_sets * lb);

  std::vector<u64> tensors;
  for (int t = 0; t < 6; ++t) {
    tensors.push_back(sim.allocate("t", tensor_bytes));
  }

  Rng rng(seed);
  auto both_access = [&](int worker, u64 addr, i64 bytes, bool write) {
    if (rng.next_below(2) == 0) {
      sim.access(worker, addr, bytes, write);
    } else {
      MemoryHierarchySim::Batch batch(sim, worker);
      batch.prefetch(addr);
      batch.access(addr, bytes, write);
    }
    ref.access(worker, addr, bytes, write);
  };
  auto expect_same = [&](const char* where) {
    const TxnCounters got = sim.counters();
    const TxnCounters& want = ref.counters();
    ASSERT_EQ(got.l1, want.l1) << where;
    ASSERT_EQ(got.l2, want.l2) << where;
    ASSERT_EQ(got.dram_read, want.dram_read) << where;
    ASSERT_EQ(got.dram_write, want.dram_write) << where;
    ASSERT_EQ(got.atomics(), 0) << where;
  };

  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const u64 ops = 300 + rng.next_below(900);
    for (u64 op = 0; op < ops; ++op) {
      const u64 kind = rng.next_below(1000);
      const int worker = static_cast<int>(rng.next_below(kWorkers));
      if (kind < 880) {
        // A run starting inside a hot set of one tensor: partial or
        // full-line, one to a few lines, read or write.
        const u64 base = tensors[rng.next_below(tensors.size())];
        const u64 line = base / lb + rng.next_below(kRows) * num_sets +
                         rng.next_below(kHotSets);
        const bool aligned = rng.next_below(2) == 0;
        const u64 addr = line * lb + (aligned ? 0 : rng.next_below(lb));
        const i64 bytes = aligned
                              ? static_cast<i64>(lb * (1 + rng.next_below(3)))
                              : static_cast<i64>(1 + rng.next_below(3 * lb));
        both_access(worker, addr, bytes, rng.next_below(3) == 0);
      } else if (kind < 950) {
        sim.invocation_begin(worker);
        ref.invocation_begin(worker);
      } else if (kind < 975) {
        expect_same("mid-stream counters()");
      } else if (kind < 990) {
        // Discard some rows of a tensor, then replace it with a fresh one:
        // the bump allocator never reuses addresses, so discarded ranges
        // are disjoint.
        const size_t t = rng.next_below(tensors.size());
        const u64 row = rng.next_below(kRows);
        const u64 rows = 1 + rng.next_below(kRows - row);
        const u64 addr = tensors[t] + row * num_sets * lb;
        const i64 bytes = static_cast<i64>(rows * num_sets * lb);
        // First dirty four of its lines in the L2, then read every other
        // tensor's aliases of their sets: the probes that evict those
        // lines (charged: they leave before the discard) are still queued
        // when discard() is called.
        const u64 set0 = rng.next_below(kHotSets);
        for (u64 i = 0; i < 4; ++i) {
          both_access(worker, addr + (set0 + i) * lb, static_cast<i64>(lb),
                      /*write=*/true);
        }
        sim.invocation_begin(worker);
        ref.invocation_begin(worker);
        for (size_t o = 0; o < tensors.size(); ++o) {
          if (o == t) continue;
          for (u64 k = 0; k < kRows; ++k) {
            both_access(worker, tensors[o] + (k * num_sets + set0) * lb,
                        static_cast<i64>(4 * lb), /*write=*/false);
          }
        }
        sim.discard(addr, bytes);
        ref.discard(addr, bytes);
        tensors[t] = sim.allocate("t", tensor_bytes);
      } else if (kind < 995) {
        sim.reset_counters();
        ref.reset_counters();
      } else {
        sim.flush();
        ref.flush();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same("end of step");
    if (::testing::Test::HasFatalFailure()) return;
    if (std::thread::hardware_concurrency() >= 2) {
      ASSERT_GT(sim.l2_shard_threads(), 0)
          << "this L2 must run on shard threads on this host";
    }
  }
  sim.flush();
  ref.flush();
  expect_same("final flush");
}

// The A100 L2: 16-bit tags (the per-set quotient).
TEST(MemSimShards, RandomizedMatchesSerialReference) {
  expect_matches_serial(MachineParams::a100(), 20240917);
}

// A 20 MB L2 (one of the abl_l2_capacity sizes) has too few sets for
// 16-bit tags, so its blocks store full 32-bit line indices and the shards
// rebuild them from the packed set and quotient.
TEST(MemSimShards, RandomizedMatchesSerialReferenceWideTags) {
  MachineParams params = MachineParams::a100();
  params.l2_bytes = i64{20} << 20;
  expect_matches_serial(params, 20241017);
}

// L2s below the smallest size timed with shards (1 MB) stay inline.
TEST(MemSimShards, SmallGeometryRunsInline) {
  MachineParams params = MachineParams::a100();
  params.l2_bytes = 1 << 19;
  MemoryHierarchySim sim(params);
  sim.access(0, sim.allocate("t", 4096), 4096, /*write=*/true);
  sim.flush();
  EXPECT_EQ(sim.l2_shard_threads(), 0);
  EXPECT_EQ(sim.counters().dram_write, 128);
}

}  // namespace
}  // namespace brickdl
