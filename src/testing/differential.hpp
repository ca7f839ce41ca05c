// Differential driver: every executor variant vs the eager oracle.
//
// One generated graph is executed through the kernel-level reference, the
// vendor fallback, every fused-baseline rule set, and the Engine with each
// merged strategy forced across the full brick-side × worker-count
// cross-product; every run's single graph output is compared elementwise
// against testing/reference_eager.hpp. All region kernels accumulate each
// output element in one fixed order regardless of windowing, so agreement is
// asserted *exact* (tolerance 0) by default.
//
// Shared by tests/test_differential.cpp (CTest label `differential`) and the
// standalone tools/brickdl_fuzz.cpp driver. Failures carry a replay command
// (`--seed N --graph-idx K [--variant V]`) accepted by brickdl_fuzz.
#pragma once

#include <string>
#include <vector>

#include "testing/graph_gen.hpp"

namespace brickdl {

struct DiffOptions {
  std::vector<i64> brick_sides = {4, 8, 16, 32};
  std::vector<int> worker_counts = {1, 4, 16};
  bool kernel_reference = true;  ///< full-tensor region kernels, node by node
  bool vendor = true;            ///< per-layer tiled fallback
  bool fused_baselines = true;   ///< FusionRules::{kNone,kConvPointwise,kAggressive}
  /// Also run on the engine's worker team: memoized via run_parallel()
  /// ("memo-par-…"), padded bricks and vendor tiles ("…-par" twins).
  bool memo_parallel = true;
  double tolerance = 0.0;        ///< max |got − oracle| allowed (0 = bit-exact)
  /// Run only variants whose name contains this substring (replay filter).
  std::string variant_filter;
  GraphGenOptions gen;
};

struct DiffFailure {
  std::string variant;
  double max_abs_diff = 0.0;  ///< 0 when the variant threw instead
  std::string detail;         ///< first mismatch location or exception text
  std::string replay;         ///< one-line reproduction command
};

/// Run every enabled variant of `graph` (as produced by
/// `random_graph(graph_seed(seed, graph_idx))`) against the oracle.
/// Returns one entry per disagreeing or throwing variant; empty = pass.
std::vector<DiffFailure> run_differential(u64 seed, int graph_idx,
                                          const DiffOptions& options = {});

/// Same sweep over an explicit graph (regression tests pin hand-written
/// minimal graphs this way). `data_seed` derives input and weights;
/// `replay_prefix` is embedded verbatim in failure replay lines.
std::vector<DiffFailure> run_differential_graph(
    Graph graph, u64 data_seed, const std::string& replay_prefix,
    const DiffOptions& options = {});

/// The generator seed for graph `graph_idx` of sweep `seed`.
u64 graph_seed(u64 seed, int graph_idx);

}  // namespace brickdl
