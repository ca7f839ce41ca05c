#include "core/padded_executor.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {

PaddedExecutor::PaddedExecutor(const Graph& graph, const Subgraph& sg,
                               const HaloPlan& plan, Backend& backend,
                               const std::unordered_map<int, TensorId>& io)
    : graph_(graph), sg_(sg), plan_(plan), backend_(backend), io_(io) {
  BDL_CHECK_MSG(io_.count(sg.terminal()),
                "io map must provide the terminal output tensor");
  for (int ext : sg.external_inputs) {
    BDL_CHECK_MSG(io_.count(ext), "io map must provide external input "
                                      << graph.node(ext).name);
  }

  // Per-worker scratch tensors (the on-chip arena) for every non-terminal
  // node's padded window. A scratch tensor is shaped like the node's
  // activation; halo positions outside the layer bounds are masked to zero
  // before the store, so the store/load round-trip is value-preserving.
  const int workers = backend.num_workers();
  for (int n : sg.nodes) {
    if (n == sg.terminal()) continue;
    std::vector<TensorId> per_worker;
    per_worker.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      per_worker.push_back(backend.register_tensor(
          graph.node(n).out_shape, Layout::kOnChipScratch, {},
          "padded_scratch:" + graph.node(n).name + ":w" + std::to_string(w)));
    }
    scratch_.emplace(n, std::move(per_worker));
  }
  worker_scratch_.resize(static_cast<size_t>(workers));
}

void PaddedExecutor::run_brick(i64 brick_index, int worker, bool traced) {
  const Dims g = plan_.terminal_grid().unlinear(brick_index);
  WorkerScratch& ws = worker_scratch_[static_cast<size_t>(worker)];
  plan_.windows_for_brick(g, &ws.windows);

  for (int node_id : sg_.nodes) {
    const Node& node = graph_.node(node_id);
    const BlockedWindow& out_w = ws.windows.at(node_id);
    obs::TraceSpan layer_span("layer", node.name,
                              {{"node", node_id},
                               {"brick", brick_index},
                               {"worker", worker}},
                              traced);
    backend_.invocation_begin(worker);

    // Every invocation gathers exactly the window it consumes: from the
    // source tensor for external producers, from the worker's arena for
    // intermediates computed earlier in this brick's chain.
    Dims need_lo, need_extent;
    input_window_blocked(node, out_w.lo, out_w.extent, &need_lo, &need_extent);
    std::vector<SlotId>& input_slots = ws.input_slots;
    input_slots.clear();
    for (int p : node.inputs) {
      const bool external = !sg_.contains(p);
      const TensorId src =
          external ? io_.at(p) : scratch_.at(p)[static_cast<size_t>(worker)];
      input_slots.push_back(
          backend_.load_window(worker, src, need_lo, need_extent));
    }

    const bool is_terminal = node_id == sg_.terminal();
    SlotId out;
    {
      obs::TraceSpan brick_span("brick", node.name, {{"brick", brick_index}},
                                traced);
      out = backend_.compute(worker, node_id, input_slots, out_w.lo,
                             out_w.extent,
                             /*mask_to_bounds=*/!is_terminal);
    }
    for (SlotId s : input_slots) backend_.free_slot(worker, s);

    const TensorId dst = is_terminal
                             ? io_.at(node_id)
                             : scratch_.at(node_id)[static_cast<size_t>(worker)];
    backend_.store_window(worker, out, dst, out_w.lo, out_w.extent);
  }
}

Status PaddedExecutor::run_checked(WorkerTeam* team) {
  const int workers = backend_.num_workers();
  if (team && team->size() > workers) {
    return Status(StatusCode::kInvalidOptions,
                  "worker team larger than backend worker count");
  }
  Status status;
  // One enabled-check per run instead of one per span in the brick loop:
  // disabled-tracing runs construct every span pre-gated off.
  const bool traced = obs::Tracer::enabled();
  try {
    const i64 n = plan_.num_bricks();
    if (team) {
      // Chunked claims: ~8 chunks per worker balances steal granularity
      // against cursor contention when bricks are small and numerous.
      const i64 grain = std::max<i64>(1, n / (8 * team->size()));
      team->parallel_for_ranges(
          n, grain, [this, traced](i64 begin, i64 end, int worker) {
            for (i64 i = begin; i < end; ++i) run_brick(i, worker, traced);
          });
    } else {
      // Contiguous brick ranges per worker, like GPU block scheduling.
      for (i64 i = 0; i < n; ++i) {
        const int worker = static_cast<int>(i * workers / n);
        run_brick(i, worker, traced);
      }
    }
    bricks_executed_ += n;
    obs::metrics().counter("padded.runs").add(1);
    obs::metrics().counter("padded.bricks").add(n);
    obs::metrics().counter("padded.invocations")
        .add(n * static_cast<i64>(sg_.nodes.size()));
    backend_.tally_reduce(n);
  } catch (const StatusError& e) {
    status = e.status();
  } catch (const std::exception& e) {
    status = Status(StatusCode::kKernelFailure, e.what());
  }
  // Intermediate windows are dead (success or abort): drop without writeback.
  for (auto& [node, per_worker] : scratch_) {
    for (TensorId id : per_worker) backend_.discard_tensor(id);
  }
  return status;
}

}  // namespace brickdl
