// Padded-bricks merged execution (§3.2.1, Fig. 2c, Fig. 4).
//
// Each terminal brick is produced by one worker that re-computes the whole
// subgraph chain over a halo-padded window: the gather from the subgraph
// input covers the accumulated halo of all layers (B+2p, B+4p, ...), each
// intermediate layer is computed over its shrinking padded window into
// per-worker scratch, masked to the true layer bounds, and only the final
// brick is stored. Intermediate activations are never materialized globally;
// no synchronization is needed until the end-of-subgraph reduction.
#pragma once

#include <unordered_map>

#include "core/backend.hpp"
#include "core/halo_plan.hpp"
#include "util/status.hpp"
#include "util/worker_team.hpp"

namespace brickdl {

class PaddedExecutor {
 public:
  /// `io` maps every external-input node id and the terminal node id to the
  /// backend tensors holding their data.
  PaddedExecutor(const Graph& graph, const Subgraph& sg, const HaloPlan& plan,
                 Backend& backend,
                 const std::unordered_map<int, TensorId>& io);

  /// Execute all terminal bricks. With `team`, bricks run concurrently on
  /// real threads (the engine's run-scoped team); otherwise a deterministic
  /// serial sweep assigns contiguous brick ranges to backend workers,
  /// mirroring GPU block scheduling. A faulting kernel aborts the sweep and
  /// returns a classified kKernelFailure; scratch is discarded either way.
  Status run_checked(WorkerTeam* team = nullptr);

  i64 bricks_executed() const { return bricks_executed_; }

 private:
  void run_brick(i64 brick_index, int worker, bool traced);

  const Graph& graph_;
  const Subgraph& sg_;
  const HaloPlan& plan_;
  Backend& backend_;
  std::unordered_map<int, TensorId> io_;
  // Per-worker, per-node scratch tensors for intermediate padded windows
  // (the on-chip arena; discarded after the subgraph completes).
  std::unordered_map<int, std::vector<TensorId>> scratch_;  // node -> [worker]
  // Per-worker reusable containers for the brick hot loop (the window map
  // and slot list would otherwise be rebuilt — with fresh heap buckets — for
  // every brick).
  struct WorkerScratch {
    std::unordered_map<int, BlockedWindow> windows;
    std::vector<SlotId> input_slots;
  };
  std::vector<WorkerScratch> worker_scratch_;
  i64 bricks_executed_ = 0;
};

}  // namespace brickdl
