// Model-vs-measured profiling (DESIGN.md §8): the predicted half.
//
// For a planned subgraph, predict_subgraph() runs the §4 analytic cost model
// *before* execution — a pure structural walk of the brick dependence graph,
// no backend, no kernels — and yields the quantities the executors will later
// be measured against: brick invocations, compulsory atomics, DRAM bytes
// moved, flops (split by execution unit), and the perfect-overlap time
// estimate. The run report (obs/report.hpp) pairs these with the observed
// simulator counters and wall-clock times.
//
// What is exact and what is approximate:
//  * invocations — exact for padded (terminal bricks × layers) and
//    memoized (reachable bricks; the executor's exactly-once invariant);
//  * compulsory atomics — exact for a fault-free memoized run (2 per brick:
//    claim + publish election);
//  * flops — exact: padded sums the halo-expanded window volumes the
//    HaloPlan schedules, memoized sums valid extents;
//  * DRAM bytes — compulsory traffic only (inputs and weights streamed once,
//    terminal written once); observed traffic adds capacity misses, so the
//    golden tests compare within a stated tolerance;
//  * conflict atomics, defers — schedule-dependent, not predicted (reported
//    as zero).
#pragma once

#include "core/partitioner.hpp"
#include "obs/json.hpp"
#include "sim/cost.hpp"

namespace brickdl::obs {

/// Cost-model prediction for one planned subgraph.
struct SubgraphPrediction {
  Strategy strategy = Strategy::kVendor;
  /// True for the merged strategies the brick model covers. Vendor subgraphs
  /// get flops/bytes totals only (their tile counts depend on runtime
  /// options), with `modeled` false and invocations left zero.
  bool modeled = false;

  i64 invocations = 0;         ///< per-brick kernel launches
  i64 bricks = 0;              ///< bricks computed (== invocations when merged)
  i64 compulsory_atomics = 0;  ///< memoized claim+publish CAS pairs
  double flops = 0.0;          ///< FP32 CUDA-core flops
  double tc_flops = 0.0;       ///< tensor-core flops
  /// Padded-bricks redundant work: flops beyond the exact layer volumes
  /// (the halo-recompute cost the memoized strategy trades for CAS traffic).
  double halo_recompute_flops = 0.0;
  i64 bytes_read = 0;     ///< compulsory DRAM reads (inputs + weights)
  i64 bytes_written = 0;  ///< compulsory DRAM writes (terminal output)
  double seconds = 0.0;   ///< perfect-overlap time (CostModel::breakdown)

  i64 bytes_moved() const { return bytes_read + bytes_written; }

  Json to_json() const;
};

/// Run the §4 cost model over one planned subgraph. Pure function of the
/// plan and the machine; safe to call whether or not the subgraph ever runs.
SubgraphPrediction predict_subgraph(const Graph& graph,
                                    const PlannedSubgraph& planned,
                                    const MachineParams& machine);

}  // namespace brickdl::obs
