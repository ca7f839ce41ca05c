#include "core/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "core/halo_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace brickdl {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kPadded: return "padded";
    case Strategy::kMemoized: return "memoized";
    case Strategy::kVendor: return "vendor";
  }
  return "?";
}

namespace {

Subgraph make_subgraph(const Graph& graph, std::vector<int> nodes) {
  Subgraph sg;
  sg.nodes = std::move(nodes);
  for (int n : sg.nodes) {
    for (int p : graph.node(n).inputs) {
      if (!sg.contains(p) &&
          std::find(sg.external_inputs.begin(), sg.external_inputs.end(), p) ==
              sg.external_inputs.end()) {
        sg.external_inputs.push_back(p);
      }
    }
  }
  return sg;
}

/// True when the candidate can legally close: every member except the last
/// has all consumers inside the candidate.
bool closable(const Graph& graph, const std::vector<int>& nodes) {
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    for (int c : graph.consumers(nodes[i])) {
      if (std::find(nodes.begin(), nodes.end(), c) == nodes.end()) return false;
    }
  }
  return true;
}

bool is_reduction(const Node& node) { return node.kind == OpKind::kPool; }

/// Live scratch for one in-flight brick chain: the largest input-windows +
/// output-window pair across the subgraph's layers (only adjacent windows
/// are simultaneously live in the merged chain).
i64 live_pair_bytes(const Graph& graph, const Subgraph& sg,
                    const HaloPlan& plan) {
  const auto& extents = plan.max_extents();
  i64 worst = 0;
  for (int n : sg.nodes) {
    const Node& node = graph.node(n);
    i64 live = node.out_shape.channels() * extents.at(n).product();
    for (int p : node.inputs) {
      live += graph.node(p).out_shape.channels() * extents.at(p).product();
    }
    worst = std::max(worst, live);
  }
  return worst * static_cast<i64>(sizeof(float));
}

}  // namespace

namespace {

/// Total bricks across every layer of the subgraph at a given extent rule
/// (each layer's grid uses extent min(brick_extent, bounds) per dim).
i64 total_layer_bricks(const Graph& graph, const Subgraph& sg,
                       const Dims& brick_extent) {
  i64 total = 0;
  for (int n : sg.nodes) {
    const Dims bounds = graph.node(n).out_shape.blocked_dims();
    i64 bricks = 1;
    for (int d = 0; d < bounds.rank(); ++d) {
      bricks *= ceil_div(bounds[d], std::min(brick_extent[d], bounds[d]));
    }
    total += bricks;
  }
  return total;
}

/// Base (non-redundant) compute time of the subgraph under the two-bucket
/// flop model (tensor-core vs FP32 work).
double subgraph_base_time(const Graph& graph, const Subgraph& sg,
                          const MachineParams& m) {
  double fp = 0.0, tc = 0.0;
  for (int n : sg.nodes) {
    const Node& node = graph.node(n);
    const double f = static_cast<double>(flops(node, graph.input_shapes(node)));
    (uses_tensor_cores(node) ? tc : fp) += f;
  }
  return fp / m.flops_per_second + tc / m.tensor_core_flops_per_second;
}

/// Modeled overheads of running the subgraph merged at a given brick size:
/// base compute is strategy-independent, so only the overheads matter for
/// the choice.
struct MergedOverheads {
  double padded = 0.0;
  double memoized = 0.0;
};

MergedOverheads merged_overheads(const Graph& graph, const Subgraph& sg,
                                 const HaloPlan& plan, const Dims& brick_extent,
                                 const PartitionOptions& options) {
  const MachineParams& m = options.machine;
  const double base_time = subgraph_base_time(graph, sg, m);
  const i64 terminal_bricks = plan.num_bricks();
  const i64 layer_bricks = total_layer_bricks(graph, sg, brick_extent);

  MergedOverheads o;
  o.padded = plan.padding_growth() * base_time +
             static_cast<double>(terminal_bricks) *
                 static_cast<double>(sg.nodes.size()) * m.t_launch;
  o.memoized =
      static_cast<double>(layer_bricks) * (m.t_launch + 2.0 * m.t_atomic);
  return o;
}

}  // namespace

MachineParams effective_machine(const PartitionOptions& options) {
  return options.calibration ? options.calibration->apply(options.machine)
                             : options.machine;
}

PlannedSubgraph plan_subgraph(const Graph& graph, Subgraph sg,
                              const PartitionOptions& options,
                              i64 forced_brick_side) {
  if (options.calibration) {
    // Fold once at the entry point so every internal costing site below
    // reads the calibrated constants straight from `machine`.
    PartitionOptions folded = options;
    folded.machine = effective_machine(options);
    folded.calibration.reset();
    return plan_subgraph(graph, std::move(sg), folded, forced_brick_side);
  }
  PlannedSubgraph planned;
  const Shape& terminal_shape = graph.node(sg.terminal()).out_shape;

  BrickSizeChoice choice;
  if (forced_brick_side > 0) {
    choice.brick_side = forced_brick_side;
    choice.parallelism = options.brick_model.rho(terminal_shape,
                                                 forced_brick_side);
  } else {
    choice = options.brick_model.choose(terminal_shape);
  }

  if (choice.vendor_fallback) {
    sg.merged = false;
    planned.sg = std::move(sg);
    planned.strategy = Strategy::kVendor;
    planned.rho = choice.parallelism;
    return planned;
  }

  sg.merged = true;
  planned.brick_side = choice.brick_side;
  planned.rho = choice.parallelism;
  planned.brick_extent = choice.brick_extent(terminal_shape);

  bool cost_choice_made = false;
  if (options.cost_aware && forced_brick_side == 0) {
    // Evaluate every admissible B and both strategies with the cost model;
    // keep the max-ρ choice only as the tie-break seed (see PartitionOptions).
    double best_cost = std::numeric_limits<double>::infinity();
    for (i64 b : BrickSizeModel::kCandidates) {
      const double r = options.brick_model.rho(terminal_shape, b);
      if (r > static_cast<double>(options.brick_model.tau)) continue;
      // Enough bricks to occupy the machine (several chains can share an SM,
      // so half the SM count suffices; the literal ρ ≥ Bⁿ fallback check still
      // applies to the final max-ρ choice above).
      if (r < options.machine.num_sms / 2.0) continue;
      BrickSizeChoice candidate;
      candidate.brick_side = b;
      candidate.parallelism = r;
      const Dims extent = candidate.brick_extent(terminal_shape);
      const HaloPlan candidate_plan(graph, sg, extent);
      const MergedOverheads o =
          merged_overheads(graph, sg, candidate_plan, extent, options);
      Strategy strategy = Strategy::kPadded;
      double cost = o.padded;
      if (o.memoized < cost) {
        strategy = Strategy::kMemoized;
        cost = o.memoized;
      }
      if (cost < best_cost) {
        best_cost = cost;
        planned.brick_side = b;
        planned.rho = r;
        planned.brick_extent = extent;
        planned.strategy = strategy;
        planned.delta = candidate_plan.padding_growth();
        cost_choice_made = true;
      }
    }
  }

  if (cost_choice_made) {
    // Merged execution must pay for its overheads with the DRAM traffic it
    // eliminates (interior activations never stream to DRAM under merging).
    // If it cannot, running the layers through the vendor library is faster.
    double interior_bytes = 0.0;
    for (int n : sg.nodes) {
      if (n == sg.terminal()) continue;
      interior_bytes += static_cast<double>(graph.node(n).out_shape.bytes());
    }
    const double dram_saved =
        2.0 * interior_bytes / options.machine.hbm_bandwidth;
    const Dims extent = planned.brick_extent;
    const HaloPlan chosen_plan(graph, sg, extent);
    const MergedOverheads o =
        merged_overheads(graph, sg, chosen_plan, extent, options);
    const double cheapest = std::min(o.padded, o.memoized);
    if (cheapest > dram_saved && sg.nodes.size() > 1) {
      sg.merged = false;
      planned.sg = std::move(sg);
      planned.strategy = Strategy::kVendor;
      planned.footprint_bytes = 0;
      return planned;
    }
  }

  const HaloPlan plan(graph, sg, planned.brick_extent);
  if (!cost_choice_made) {
    planned.delta = plan.padding_growth();
    planned.strategy = planned.delta > options.delta_threshold
                           ? Strategy::kMemoized
                           : Strategy::kPadded;
  }

  // On-chip working set: in-flight brick chains for padded execution; the
  // same plus the brick state table for memoized (interior memo bricks are
  // streamed through L2, only the live cones must be resident).
  const i64 chains = static_cast<i64>(options.modeled_workers);
  i64 footprint = chains * live_pair_bytes(graph, sg, plan);
  if (planned.strategy == Strategy::kMemoized) {
    i64 states = 0;
    for (int n : sg.nodes) {
      (void)n;
      states += plan.num_bricks();  // one tag byte per brick per layer (upper bound)
    }
    footprint += states;
  }
  planned.footprint_bytes = footprint;
  planned.sg = std::move(sg);
  return planned;
}

namespace {

/// `plan` re-planned as per-layer vendor calls.
PlannedSubgraph vendor_plan(PlannedSubgraph plan) {
  PlannedSubgraph vendor;
  vendor.sg = std::move(plan.sg);
  vendor.sg.merged = false;
  vendor.strategy = Strategy::kVendor;
  return vendor;
}

/// The paper's one-shot partitioner (§3.3.1): scan in topological order,
/// grow the longest closable mergeable prefix that fits the footprint budget.
Partition partition_paper(const Graph& graph, const PartitionOptions& options) {
  Partition partition;
  const int n_nodes = graph.num_nodes();
  int i = 0;
  while (i < n_nodes) {
    const Node& head = graph.node(i);
    if (head.kind == OpKind::kInput) {
      ++i;
      continue;
    }
    if (!is_mergeable(head.kind)) {
      PlannedSubgraph vendor;
      vendor.sg = make_subgraph(graph, {i});
      vendor.strategy = Strategy::kVendor;
      partition.subgraphs.push_back(std::move(vendor));
      ++i;
      continue;
    }

    // Grow a mergeable candidate; remember the best closable prefix.
    std::vector<int> candidate;
    size_t best_len = 0;
    PlannedSubgraph best_plan;
    int j = i;
    while (j < n_nodes) {
      const Node& node = graph.node(j);
      if (node.kind == OpKind::kInput || !is_mergeable(node.kind)) break;
      if (static_cast<int>(candidate.size()) >= options.max_layers) break;
      candidate.push_back(j);
      if (closable(graph, candidate)) {
        PlannedSubgraph plan =
            plan_subgraph(graph, make_subgraph(graph, candidate), options);
        const bool fits = plan.strategy == Strategy::kVendor ||
                          plan.footprint_bytes <= options.l2_budget;
        if (fits || candidate.size() == 1) {
          // A single layer that does not fit the budget runs as vendor.
          if (!fits) plan = vendor_plan(std::move(plan));
          best_len = candidate.size();
          best_plan = std::move(plan);
          // Preferred terminators (§3.3.1): reductions and global ops.
          if (is_reduction(node) || is_global(node.kind)) break;
        } else {
          break;  // footprint exceeded; close at the previous prefix
        }
      }
      ++j;
    }
    BDL_CHECK(best_len >= 1);
    partition.subgraphs.push_back(std::move(best_plan));
    i += static_cast<int>(best_len);
  }
  return partition;
}

}  // namespace

double predicted_partition_seconds(const Graph& graph, const Partition& p,
                                   const MachineParams& machine) {
  double total = 0.0;
  for (const PlannedSubgraph& planned : p.subgraphs) {
    total += obs::predict_subgraph(graph, planned, machine).seconds;
  }
  return total;
}

Partition partition_graph(const Graph& graph, const PartitionOptions& options) {
  if (options.calibration) {
    PartitionOptions folded = options;
    folded.machine = effective_machine(options);
    folded.calibration.reset();
    return partition_graph(graph, folded);
  }
  obs::TraceSpan span("engine", "partition:" + graph.name());
  Partition partition = partition_paper(graph, options);
  span.arg("subgraphs", static_cast<i64>(partition.subgraphs.size()));
  span.arg("merged", partition.merged_subgraphs());
  obs::metrics().counter("partition.runs").add(1);
  obs::metrics().counter("partition.subgraphs")
      .add(static_cast<i64>(partition.subgraphs.size()));
  obs::metrics().counter("partition.merged").add(partition.merged_subgraphs());
  return partition;
}

i64 Partition::merged_subgraphs() const {
  i64 n = 0;
  for (const auto& s : subgraphs) {
    if (s.strategy != Strategy::kVendor) ++n;
  }
  return n;
}

std::string PlannedSubgraph::describe(const Graph& graph) const {
  std::ostringstream os;
  os << strategy_name(strategy) << " [";
  for (size_t i = 0; i < sg.nodes.size(); ++i) {
    if (i) os << ", ";
    os << graph.node(sg.nodes[i]).name;
  }
  os << "]";
  if (strategy != Strategy::kVendor) {
    os << " B=" << brick_side << " rho=" << static_cast<i64>(rho)
       << " delta=" << static_cast<i64>(delta * 100.0) << "%";
  }
  return os.str();
}

std::string Partition::describe(const Graph& graph) const {
  std::ostringstream os;
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    os << "subgraph " << i + 1 << ": " << subgraphs[i].describe(graph) << "\n";
  }
  return os.str();
}

}  // namespace brickdl
