// DNN graph partitioning (§3.3.1) and merged-execution strategy selection
// (§3.3.2–3.3.3).
//
// The graph is scanned in topological order, greedily growing a candidate
// subgraph of mergeable operators. A candidate may only close at a point
// where the subgraph invariants hold (single terminal; all other members
// consumed internally). Growth stops when:
//   * the next operator is not mergeable (it becomes a vendor-library node);
//   * the merged data footprint would exceed the on-chip (L2) budget;
//   * a reduction (strided pool) or global operator was just added — the
//     preferred subgraph terminators;
//   * a layer-count cap is reached.
// For each closed subgraph the brick-size model picks B (ρ ≤ τ) and the
// padding-growth rule picks the strategy: padded bricks unless Δ > 15%.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/brick_size_model.hpp"
#include "core/subgraph.hpp"
#include "obs/calibrate.hpp"
#include "sim/machine.hpp"

namespace brickdl {

enum class Strategy {
  kPadded,
  kMemoized,
  kVendor,
};

const char* strategy_name(Strategy s);

struct PartitionOptions {
  i64 l2_budget = MachineParams{}.l2_bytes;
  double delta_threshold = 0.15;  ///< Δ rule (§3.3.2)
  int max_layers = 12;            ///< cap on merged subgraph depth
  /// Estimated concurrently-resident brick chains for the footprint rule
  /// (fewer than the scheduler's worker slots: chains retire as they finish).
  int modeled_workers = 16;
  BrickSizeModel brick_model;
  /// Pick (B, strategy) by minimizing the modeled overhead instead of the
  /// pure max-ρ + Δ rules. The paper underspecifies this reconciliation: its
  /// ρ-maximizing rule prefers the smallest brick, yet its own Fig. 11 shows
  /// 4³ bricks perform worst from padding/atomic overheads. Cost-aware
  /// selection (the default) evaluates every candidate B and both merged
  /// strategies with the machine cost model; setting this false reproduces
  /// the literal §3.3.2–3.3.3 rules.
  bool cost_aware = true;
  MachineParams machine;
  /// Fitted cost-model constants (obs/calibrate.hpp, DESIGN.md §15). When
  /// set, every §4 costing decision made under these options — brick-size
  /// and strategy selection — prices plans with `machine` overwritten by
  /// these constants. Partition results (never outputs) may differ from the
  /// stock model's.
  std::optional<obs::CalibratedConstants> calibration;
};

/// `machine` with `calibration` folded in (identity when unset) — the params
/// every §4 costing under these options actually uses. Callers that price
/// plans directly (BatchPlanner, report generation) go through this so their
/// predictions agree with what the partitioner optimized.
MachineParams effective_machine(const PartitionOptions& options);

struct PlannedSubgraph {
  Subgraph sg;
  Strategy strategy = Strategy::kVendor;
  Dims brick_extent;      ///< valid when merged
  i64 brick_side = 0;
  double rho = 0.0;       ///< parallelism at the chosen brick size
  double delta = 0.0;     ///< padding growth from the halo plan
  i64 footprint_bytes = 0;

  std::string describe(const Graph& graph) const;
};

struct Partition {
  std::vector<PlannedSubgraph> subgraphs;

  i64 merged_subgraphs() const;
  std::string describe(const Graph& graph) const;
};

Partition partition_graph(const Graph& graph,
                          const PartitionOptions& options = {});

/// Total §4-model predicted latency of a partition: the sum of
/// obs::predict_subgraph(...).seconds over every planned subgraph.
double predicted_partition_seconds(const Graph& graph, const Partition& p,
                                   const MachineParams& machine);

/// Plan a single already-chosen subgraph (used by benches that force
/// specific partitions, e.g. Fig. 10's 2+2+2 / 3+3 / 4+2 / 6 splits).
/// `forced_brick_side` of 0 lets the model choose.
PlannedSubgraph plan_subgraph(const Graph& graph, Subgraph sg,
                              const PartitionOptions& options,
                              i64 forced_brick_side = 0);

}  // namespace brickdl
