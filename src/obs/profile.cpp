#include "obs/profile.hpp"

#include <algorithm>
#include <vector>

#include "brick/brick_grid.hpp"
#include "core/halo_plan.hpp"
#include "graph/halo.hpp"

namespace brickdl::obs {
namespace {

constexpr i64 kFloatBytes = static_cast<i64>(sizeof(float));

/// Per-layer brick grids exactly as the memoized executor builds them:
/// the subgraph's shared brick extent, clipped per dim to each layer's
/// blocked bounds.
std::vector<BrickGrid> clipped_grids(const Graph& graph, const Subgraph& sg,
                                     const Dims& brick_extent) {
  std::vector<BrickGrid> grids;
  grids.reserve(sg.nodes.size());
  for (int nid : sg.nodes) {
    const Dims bounds = graph.node(nid).out_shape.blocked_dims();
    Dims extent = brick_extent;
    BDL_CHECK(extent.rank() == bounds.rank());
    for (int d = 0; d < extent.rank(); ++d) {
      extent[d] = std::min(extent[d], bounds[d]);
    }
    grids.emplace_back(bounds, extent);
  }
  return grids;
}

/// In-subgraph producer bricks of (node t, brick b) — the same enumeration
/// MemoizedExecutor::make_task performs: the producer bricks overlapping the
/// brick's input window, clipped to the producer's bounds (out-of-bounds
/// halo is zero-filled and depends on nothing).
template <typename Fn>
void for_each_dep(const Graph& graph, const Subgraph& sg,
                  const std::vector<BrickGrid>& grids, int t, i64 brick,
                  Fn&& fn) {
  const Node& node = graph.node(sg.nodes[static_cast<size_t>(t)]);
  const BrickGrid& grid = grids[static_cast<size_t>(t)];
  const Dims g = grid.grid.unlinear(brick);
  Dims need_lo, need_extent;
  input_window_blocked(node, grid.brick_origin(g), grid.valid_extent(g),
                       &need_lo, &need_extent);

  for (int p : node.inputs) {
    const auto it = std::find(sg.nodes.begin(), sg.nodes.end(), p);
    if (it == sg.nodes.end()) continue;
    const int p_index = static_cast<int>(it - sg.nodes.begin());
    const BrickGrid& p_grid = grids[static_cast<size_t>(p_index)];
    Dims b_lo = need_lo, b_cnt = need_extent;
    bool empty = false;
    for (int d = 0; d < need_lo.rank(); ++d) {
      const i64 a = std::max<i64>(need_lo[d], 0);
      const i64 b = std::min<i64>(need_lo[d] + need_extent[d],
                                  p_grid.blocked[d]);
      if (b <= a) {
        empty = true;
        break;
      }
      b_lo[d] = a / p_grid.brick[d];
      b_cnt[d] = (b - 1) / p_grid.brick[d] - b_lo[d] + 1;
    }
    if (empty) continue;
    Dims idx = b_lo;
    const i64 n_deps = b_cnt.product();
    for (i64 k = 0; k < n_deps; ++k) {
      fn(p_index, p_grid.grid.linear(idx));
      for (int d = idx.rank() - 1; d >= 0; --d) {
        if (++idx[d] - b_lo[d] < b_cnt[d]) break;
        idx[d] = b_lo[d];
      }
    }
  }
}

/// Compulsory DRAM traffic shared by every merged strategy: external inputs
/// and weights stream in once, the terminal output writes back once.
/// Interior layers live in memo buffers (discarded unread from DRAM) or
/// on-chip scratch, so they move no compulsory DRAM bytes.
void add_merged_bytes(const Graph& graph, const Subgraph& sg,
                      SubgraphPrediction* p) {
  for (int ext : sg.external_inputs) {
    p->bytes_read += graph.node(ext).out_shape.bytes();
  }
  for (int nid : sg.nodes) {
    p->bytes_read += graph.node(nid).weight_elements() * kFloatBytes;
  }
  p->bytes_written += graph.node(sg.terminal()).out_shape.bytes();
}

void add_flops(const Graph& graph, int nid, double volume,
               SubgraphPrediction* p) {
  const Node& node = graph.node(nid);
  const double f =
      flops_per_blocked_point(node, graph.input_shapes(node)) * volume;
  (uses_tensor_cores(node) ? p->tc_flops : p->flops) += f;
}

/// Perfect-overlap time from the predicted counters, through the same
/// CostModel::breakdown the observed side uses.
double predicted_seconds(const SubgraphPrediction& p, double rho,
                         const MachineParams& machine) {
  const CostModel cost(machine);
  TxnCounters txns;
  txns.dram_read = ceil_div(p.bytes_read, machine.line_bytes);
  txns.dram_write = ceil_div(p.bytes_written, machine.line_bytes);
  txns.atomics_compulsory = p.compulsory_atomics;
  ComputeTally tally;
  tally.invocations = p.invocations;
  tally.flops = p.flops;
  tally.tc_flops = p.tc_flops;
  tally.bricks_reduced = p.bricks;
  return cost.breakdown(txns, tally, rho).total();
}

}  // namespace

SubgraphPrediction predict_subgraph(const Graph& graph,
                                    const PlannedSubgraph& planned,
                                    const MachineParams& machine) {
  SubgraphPrediction p;
  p.strategy = planned.strategy;
  const Subgraph& sg = planned.sg;

  if (planned.strategy == Strategy::kVendor) {
    // Vendor subgraphs run per-layer library calls with canonical interiors:
    // every layer's inputs, weights, and output move through DRAM. Tile
    // counts depend on the runtime tile side, so invocations stay zero.
    for (int ext : sg.external_inputs) {
      p.bytes_read += graph.node(ext).out_shape.bytes();
    }
    for (int nid : sg.nodes) {
      const Node& node = graph.node(nid);
      p.bytes_read += node.weight_elements() * kFloatBytes;
      p.bytes_written += node.out_shape.bytes();
      if (nid != sg.terminal()) p.bytes_read += node.out_shape.bytes();
      const double f =
          static_cast<double>(flops(node, graph.input_shapes(node)));
      (uses_tensor_cores(node) ? p.tc_flops : p.flops) += f;
    }
    p.seconds = predicted_seconds(p, /*rho=*/0.0, machine);
    return p;
  }

  p.modeled = true;
  const std::vector<BrickGrid> grids =
      clipped_grids(graph, sg, planned.brick_extent);
  const int terminal_index = static_cast<int>(sg.nodes.size()) - 1;

  switch (planned.strategy) {
    case Strategy::kPadded: {
      // One invocation per (terminal brick, layer); each computes the
      // halo-expanded window the reverse-traversal planner schedules.
      const HaloPlan plan(graph, sg, planned.brick_extent);
      const i64 terminal_bricks = plan.num_bricks();
      p.invocations = terminal_bricks * static_cast<i64>(sg.nodes.size());
      p.bricks = terminal_bricks;
      double exact_flops = 0.0;
      for (int nid : sg.nodes) {
        exact_flops += static_cast<double>(
            flops(graph.node(nid), graph.input_shapes(graph.node(nid))));
      }
      for (i64 b = 0; b < terminal_bricks; ++b) {
        const auto windows =
            plan.windows_for_brick(plan.terminal_grid().unlinear(b));
        for (int nid : sg.nodes) {
          add_flops(graph, nid,
                    static_cast<double>(windows.at(nid).volume()), &p);
        }
      }
      p.halo_recompute_flops =
          std::max(0.0, p.flops + p.tc_flops - exact_flops);
      break;
    }
    case Strategy::kMemoized: {
      // Structural reachability walk — the bricks a fault-free run computes
      // exactly once, each claimed and published with one CAS apiece.
      std::vector<std::vector<char>> seen;
      seen.reserve(grids.size());
      for (const BrickGrid& g : grids) {
        seen.emplace_back(static_cast<size_t>(g.num_bricks()), 0);
      }
      std::vector<std::pair<int, i64>> frontier;
      for (i64 b = 0; b < grids[static_cast<size_t>(terminal_index)]
                              .num_bricks(); ++b) {
        seen[static_cast<size_t>(terminal_index)][static_cast<size_t>(b)] = 1;
        frontier.emplace_back(terminal_index, b);
      }
      while (!frontier.empty()) {
        const auto [t, brick] = frontier.back();
        frontier.pop_back();
        ++p.bricks;
        const BrickGrid& grid = grids[static_cast<size_t>(t)];
        add_flops(graph, sg.nodes[static_cast<size_t>(t)],
                  static_cast<double>(
                      grid.valid_extent(grid.grid.unlinear(brick)).product()),
                  &p);
        for_each_dep(graph, sg, grids, t, brick, [&](int pi, i64 pb) {
          char& mark = seen[static_cast<size_t>(pi)][static_cast<size_t>(pb)];
          if (!mark) {
            mark = 1;
            frontier.emplace_back(pi, pb);
          }
        });
      }
      p.invocations = p.bricks;
      p.compulsory_atomics = 2 * p.bricks;
      break;
    }
    case Strategy::kVendor:
      break;  // handled above
  }

  add_merged_bytes(graph, sg, &p);
  p.seconds = predicted_seconds(p, planned.rho, machine);
  return p;
}

Json SubgraphPrediction::to_json() const {
  Json j = Json::object();
  j.set("strategy", std::string(strategy_name(strategy)));
  j.set("modeled", modeled);
  j.set("invocations", invocations);
  j.set("bricks", bricks);
  j.set("compulsory_atomics", compulsory_atomics);
  j.set("flops", flops);
  j.set("tc_flops", tc_flops);
  j.set("halo_recompute_flops", halo_recompute_flops);
  j.set("bytes_read", bytes_read);
  j.set("bytes_written", bytes_written);
  j.set("bytes_moved", bytes_moved());
  j.set("seconds", seconds);
  return j;
}

}  // namespace brickdl::obs
