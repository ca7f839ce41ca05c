// Wavefront merged execution — the §6 extension the paper sketches
// ("replacing cuDNN library calls with ... optimizations such as wavefront
// parallelization and performing skewed cuts across layers").
//
// Bricks are assigned to *waves*: brick row r of the subgraph's ℓ-th layer
// belongs to wave  w = skew·ℓ + r,  with the skew factor chosen so that
// every dependence (which always points to an earlier layer) lands in a
// strictly earlier wave. Waves execute in order with a device-wide sync
// between them; bricks within a wave are independent and run concurrently.
//
// Compared to the paper's two strategies this trades differently:
//  * like memoized bricks, no redundant halo computation (exact bricks);
//  * like padded bricks, no per-brick atomics — the wave barrier is the
//    only synchronization (cost: t_wave_sync per wave);
//  * the pipeline fills diagonally, so parallelism ramps up and down at the
//    wavefront edges (classic skewed-tiling behaviour).
#pragma once

#include <unordered_map>

#include "core/backend.hpp"
#include "core/subgraph.hpp"
#include "util/status.hpp"

namespace brickdl {

class WavefrontExecutor {
 public:
  struct Stats {
    i64 waves = 0;
    i64 bricks_computed = 0;
    i64 skew = 0;
    i64 max_wave_width = 0;  ///< peak bricks in one wave (parallelism)
  };

  /// `io` maps external-input node ids and the terminal node id to backend
  /// tensors; `brick_extent` is shared by every layer (as in memoized).
  WavefrontExecutor(const Graph& graph, const Subgraph& sg,
                    const Dims& brick_extent, Backend& backend,
                    const std::unordered_map<int, TensorId>& io);

  /// Execute wave by wave. Deterministic; bricks within a wave are spread
  /// across backend workers round-robin. A faulting kernel aborts the sweep
  /// and returns a classified kKernelFailure; interior memo buffers are
  /// discarded either way.
  Status run_checked();

  const Stats& stats() const { return stats_; }

  /// The skew factor chosen for this subgraph (exposed for tests).
  i64 skew() const { return skew_; }

 private:
  struct BrickRef {
    int sg_index;
    i64 brick;  ///< linear index in that node's grid
  };

  /// Wave index of a brick: skew·layer + its row along the first spatial dim.
  i64 wave_of(int sg_index, const Dims& grid_coord) const;
  void compute_brick(int worker, int sg_index, i64 brick);
  /// Smallest skew that strictly orders every dependence; throws if no skew
  /// up to the given bound works (cannot happen for αX+β ops with α ≥ 1/s).
  i64 choose_skew() const;

  const Graph& graph_;
  const Subgraph& sg_;
  Dims brick_extent_;
  Backend& backend_;
  std::unordered_map<int, TensorId> io_;

  std::vector<BrickGrid> grids_;  // per sg node
  std::vector<TensorId> memo_;    // per sg node (terminal = io)
  // Per sg node, per input: source tensor (memo buffer or external io),
  // precomputed so compute_brick never searches sg_.nodes.
  std::vector<std::vector<TensorId>> input_srcs_;
  std::vector<SlotId> input_slots_;  // reused across compute_brick (serial)
  bool trace_gate_ = true;           ///< Tracer::enabled(), sampled per run
  i64 skew_ = 0;
  Stats stats_;
};

}  // namespace brickdl
