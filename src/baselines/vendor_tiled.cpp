#include "baselines/vendor_tiled.hpp"

#include <algorithm>

#include "graph/halo.hpp"
#include "util/odometer.hpp"

namespace brickdl {
namespace {

/// Team-path refinement targets: at least this many tiles per team member,
/// and no spatial tile side halved below this width.
constexpr i64 kTilesPerWorker = 4;
constexpr i64 kMinTileSide = 4;

/// Halve the widest spatial tile side (outermost first on ties, which keeps
/// tiles row-contiguous) until the grid holds `target` tiles or every
/// spatial side is down to kMinTileSide. Dim 0 (batch) is always 1.
void refine_tiles(const Dims& bounds, i64 target, Dims* tile, Dims* grid) {
  while (grid->product() < target) {
    int widest = -1;
    for (int d = 1; d < bounds.rank(); ++d) {
      if ((*tile)[d] > kMinTileSide &&
          (widest < 0 || (*tile)[d] > (*tile)[widest])) {
        widest = d;
      }
    }
    if (widest < 0) return;
    (*tile)[widest] =
        std::max(kMinTileSide, ceil_div((*tile)[widest], i64{2}));
    (*grid)[widest] = ceil_div(bounds[widest], (*tile)[widest]);
  }
}

}  // namespace

void run_node_tiled(const Graph& graph, const Node& node, Backend& backend,
                    const std::unordered_map<int, TensorId>& io, TensorId out,
                    i64 tile_side, WorkerTeam* team) {
  (void)graph;
  if (node.kind == OpKind::kDense || node.kind == OpKind::kGlobalAvgPool) {
    std::vector<TensorId> inputs;
    for (int p : node.inputs) inputs.push_back(io.at(p));
    backend.execute_global(0, node.id, inputs, out);
    return;
  }

  const Dims bounds = node.out_shape.blocked_dims();
  Dims tile = Dims::filled(bounds.rank(), 1);
  Dims grid = Dims::filled(bounds.rank(), 1);
  for (int d = 0; d < bounds.rank(); ++d) {
    tile[d] = d == 0 ? 1 : std::min(tile_side, bounds[d]);
    grid[d] = ceil_div(bounds[d], tile[d]);
  }
  if (team) {
    refine_tiles(bounds, kTilesPerWorker * team->size(), &tile, &grid);
  }

  std::vector<TensorId> srcs;
  srcs.reserve(node.inputs.size());
  for (int p : node.inputs) srcs.push_back(io.at(p));

  // One tile = one kernel invocation: gather every input's halo window,
  // compute, scatter the output window. `inputs` is the worker's reused
  // slot list.
  auto run_tile = [&](const Dims& g, int worker, std::vector<SlotId>& inputs) {
    Dims lo = g, extent = tile;
    for (int d = 0; d < bounds.rank(); ++d) {
      lo[d] = g[d] * tile[d];
      extent[d] = std::min(tile[d], bounds[d] - lo[d]);
    }
    backend.invocation_begin(worker);
    Dims need_lo, need_extent;
    input_window_blocked(node, lo, extent, &need_lo, &need_extent);
    inputs.clear();
    for (TensorId src : srcs) {
      inputs.push_back(backend.load_window(worker, src, need_lo, need_extent));
    }
    const SlotId result =
        backend.compute(worker, node.id, inputs, lo, extent,
                        /*mask_to_bounds=*/false);
    for (SlotId s : inputs) backend.free_slot(worker, s);
    backend.store_window(worker, result, out, lo, extent);
  };

  const i64 tiles = grid.product();
  if (team) {
    std::vector<std::vector<SlotId>> worker_inputs(
        static_cast<size_t>(team->size()));
    const i64 grain = std::max<i64>(1, tiles / (8 * team->size()));
    team->parallel_for_ranges(tiles, grain, [&](i64 begin, i64 end,
                                                int worker) {
      std::vector<SlotId>& inputs =
          worker_inputs[static_cast<size_t>(worker)];
      for (i64 t = begin; t < end; ++t) {
        run_tile(grid.unlinear(t), worker, inputs);
      }
    });
    return;
  }

  const int workers = backend.num_workers();
  std::vector<SlotId> inputs;
  i64 t = 0;
  for_each_index(grid, [&](const Dims& g) {
    run_tile(g, static_cast<int>(t++ * workers / tiles), inputs);
  });
}

}  // namespace brickdl
