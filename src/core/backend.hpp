// Execution backends.
//
// Every executor (vendor-tiled baseline, fused baselines, padded bricks,
// memoized bricks) is written once against the abstract Backend below as a
// sequence of {invocation_begin, load_window, compute, store_window} steps
// on per-worker scratch slots. Two interpretations exist:
//
//  * NumericBackend — real tensors and region kernels; used by tests and
//    examples to validate that every execution strategy computes bit-for-bit
//    the same schedule-independent result.
//  * ModelBackend — phantom tensors in the GPU memory-hierarchy simulator;
//    load/store emit the executor's true access stream at cache-line
//    granularity and compute accumulates the analytic cost tallies.
//
// Because both interpret the *same* traversal, the schedule whose performance
// we model is exactly the schedule whose numerics we test (DESIGN.md §2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "brick/bricked_tensor.hpp"
#include "graph/graph.hpp"
#include "ops/dispatch.hpp"
#include "sim/cost.hpp"
#include "sim/memsim.hpp"
#include "util/arena.hpp"

namespace brickdl {

enum class Layout {
  kCanonical,
  kBricked,
  /// Per-worker recycled scratch (padded-bricks chain hand-offs). Numerically
  /// a canonical tensor; in the model its traffic stays on chip: every line
  /// costs an L1 and an L2 transaction but never reaches DRAM, matching
  /// scratch that is continuously reused and dead at subgraph end.
  kOnChipScratch,
};

using TensorId = int;
using SlotId = int;

class Backend {
 public:
  explicit Backend(const Graph& graph) : graph_(graph) {}
  virtual ~Backend() = default;

  const Graph& graph() const { return graph_; }
  virtual int num_workers() const = 0;

  /// Register an activation buffer. `brick_extent` is required for
  /// Layout::kBricked (over blocked dims) and ignored otherwise.
  virtual TensorId register_tensor(const Shape& shape, Layout layout,
                                   const Dims& brick_extent,
                                   const std::string& name) = 0;

  /// A new kernel invocation starts on `worker` (thread-block boundary:
  /// the modeled L1 starts cold).
  virtual void invocation_begin(int worker) = 0;

  /// Gather a blocked-space window (all channels, zero-filled out of bounds)
  /// from `src` into a fresh per-worker scratch slot.
  virtual SlotId load_window(int worker, TensorId src, const Dims& lo,
                             const Dims& extent) = 0;

  /// Scatter slot contents to `dst` over exactly the slot's window (which
  /// must match lo/extent) and free the slot.
  virtual void store_window(int worker, SlotId slot, TensorId dst,
                            const Dims& lo, const Dims& extent) = 0;

  /// Release a slot without storing it.
  virtual void free_slot(int worker, SlotId slot) = 0;

  /// Run node `node_id`'s region kernel over [out_lo, out_lo+out_extent),
  /// reading the listed input slots (kept alive; free explicitly) and
  /// returning a new slot with the result. When `mask_to_bounds` is set,
  /// positions outside the node's true blocked bounds are zeroed — required
  /// after every intermediate layer of a padded-bricks chain.
  virtual SlotId compute(int worker, int node_id,
                         const std::vector<SlotId>& inputs, const Dims& out_lo,
                         const Dims& out_extent, bool mask_to_bounds) = 0;

  /// Execute a non-region (global) operator — kDense, kGlobalAvgPool — over
  /// whole tensors in one invocation. Inputs/outputs are registered tensors.
  virtual void execute_global(int worker, int node_id,
                              const std::vector<TensorId>& inputs,
                              TensorId out) = 0;

  // ---- bookkeeping hooks (no-ops numerically, tallied by the model) ----
  virtual void count_atomics(i64 compulsory, i64 conflict) = 0;
  virtual void tally_defer(i64 n) = 0;
  virtual void tally_reduce(i64 bricks) = 0;
  /// The tensor is dead; the model drops its cached lines without writeback.
  virtual void discard_tensor(TensorId id) = 0;
  /// The tensor's last consumer has finished (DESIGN.md §9.7): a backend may
  /// recycle its storage. Not a device event — the model keeps its lines.
  virtual void release_tensor(TensorId /*id*/) {}

 protected:
  const Graph& graph_;
};

/// One gathered window on a worker's scratch pad. The data span is backed by
/// the worker's bump arena (NumericBackend) and is only valid until that
/// worker's next invocation_begin; the model backend leaves it empty.
struct ScratchSlot {
  std::span<float> data;
  Dims lo;
  Dims extent;
  i64 channels = 0;
  bool live = false;
};

class NumericBackend final : public Backend {
 public:
  NumericBackend(const Graph& graph, WeightStore& weights, int workers);

  int num_workers() const override { return workers_; }
  TensorId register_tensor(const Shape& shape, Layout layout,
                           const Dims& brick_extent,
                           const std::string& name) override;
  /// Recycles the worker's scratch arena: every slot of the previous
  /// invocation is dead by contract (executors complete each brick's
  /// load/compute/store/free sequence before the next invocation_begin on
  /// the same worker), so the arena rewinds and the slot pool is cleared.
  void invocation_begin(int worker) override;
  SlotId load_window(int worker, TensorId src, const Dims& lo,
                     const Dims& extent) override;
  void store_window(int worker, SlotId slot, TensorId dst, const Dims& lo,
                    const Dims& extent) override;
  void free_slot(int worker, SlotId slot) override;
  SlotId compute(int worker, int node_id, const std::vector<SlotId>& inputs,
                 const Dims& out_lo, const Dims& out_extent,
                 bool mask_to_bounds) override;
  void execute_global(int worker, int node_id,
                      const std::vector<TensorId>& inputs,
                      TensorId out) override;
  void count_atomics(i64, i64) override {}
  void tally_defer(i64) override {}
  void tally_reduce(i64) override {}
  /// Both return the tensor's storage to the free list; the id must not be
  /// used again. Releasing a released tensor is a no-op.
  void discard_tensor(TensorId id) override { release_tensor(id); }
  void release_tensor(TensorId id) override;

  /// Copy `data` into a registered tensor (canonical layout input).
  void bind(TensorId id, const Tensor& data);
  /// Read a registered tensor back in canonical layout.
  Tensor read(TensorId id) const;

  // ---- activation storage (DESIGN.md §9.7) ----
  // register_tensor adopts the best-fitting free block, or allocates one,
  // and never clears it; released storage goes back to the free list.
  /// Storage bytes held by registered, unreleased tensors.
  i64 live_bytes() const { return live_bytes_; }
  /// Most live bytes since construction or the last reset_peak_live_bytes()
  /// (Engine::run_checked resets it, so after a run it is that run's peak).
  i64 peak_live_bytes() const { return peak_live_bytes_; }
  void reset_peak_live_bytes() { peak_live_bytes_ = live_bytes_; }
  /// All activation storage the backend owns: live plus free-listed.
  i64 reserved_bytes() const { return live_bytes_ + free_.free_bytes(); }

 private:
  struct Buffer {
    Shape shape;
    Layout layout = Layout::kCanonical;
    std::unique_ptr<Tensor> canonical;  // null once released
    std::unique_ptr<BrickedTensor> bricked;
    i64 bytes = 0;  ///< storage held, 0 once released
  };

  const Buffer& live_buffer(TensorId id) const;

  ScratchSlot& slot_ref(int worker, SlotId slot);
  SlotId new_slot(int worker);

  WeightStore& weights_;
  int workers_;
  std::vector<Buffer> buffers_;
  std::vector<std::vector<ScratchSlot>> slots_;  // [worker][slot]
  std::vector<Arena> arenas_;                    // [worker]
  std::vector<std::vector<RegionInput>> region_inputs_;  // [worker], reused
  StorageFreeList free_;
  i64 live_bytes_ = 0;
  i64 peak_live_bytes_ = 0;
};

class ModelBackend final : public Backend {
 public:
  ModelBackend(const Graph& graph, MemoryHierarchySim& sim);

  int num_workers() const override { return sim_.num_workers(); }
  TensorId register_tensor(const Shape& shape, Layout layout,
                           const Dims& brick_extent,
                           const std::string& name) override;
  void invocation_begin(int worker) override;
  SlotId load_window(int worker, TensorId src, const Dims& lo,
                     const Dims& extent) override;
  void store_window(int worker, SlotId slot, TensorId dst, const Dims& lo,
                    const Dims& extent) override;
  void free_slot(int worker, SlotId slot) override;
  SlotId compute(int worker, int node_id, const std::vector<SlotId>& inputs,
                 const Dims& out_lo, const Dims& out_extent,
                 bool mask_to_bounds) override;
  void execute_global(int worker, int node_id,
                      const std::vector<TensorId>& inputs,
                      TensorId out) override;
  void count_atomics(i64 compulsory, i64 conflict) override;
  void tally_defer(i64 n) override;
  void tally_reduce(i64 bricks) override;
  void discard_tensor(TensorId id) override;

  MemoryHierarchySim& sim() { return sim_; }
  const ComputeTally& tally() const { return tally_; }
  void reset_tally() { tally_ = ComputeTally{}; }

 private:
  struct Buffer {
    Shape shape;
    Layout layout = Layout::kCanonical;
    u64 base = 0;
    i64 bytes = 0;
    // Bricked layout geometry.
    BrickGrid grid;
    i64 brick_storage_floats = 0;
  };

  void emit_window(int worker, const Buffer& buf, const Dims& lo,
                   const Dims& extent, bool write);
  ScratchSlot& slot_ref(int worker, SlotId slot);
  SlotId new_slot(int worker);

  MemoryHierarchySim& sim_;
  ComputeTally tally_;
  std::vector<Buffer> buffers_;
  std::vector<u64> weight_addr_;  // per node id, 0 = not yet allocated
  std::vector<std::vector<ScratchSlot>> slots_;
};

}  // namespace brickdl
