// Analytic execution-time model (§4.2–§4.4).
//
// The paper derives end-to-end breakdowns from hardware counters plus three
// calibrated rates: the DRAM transaction rate R_txn, the per-atomic time
// T_atomic, and a per-brick compute time T_brick, then assumes perfect
// overlap between the memory and compute sides. We reproduce the same
// arithmetic from simulator counters.
#pragma once

#include <algorithm>
#include <string>

#include "sim/memsim.hpp"
#include "util/table.hpp"

namespace brickdl {

/// Compute-side work accumulated by an executor run. Flops are split by the
/// execution unit that runs them: `tc_flops` go to tensor cores (2D convs,
/// dense layers), `flops` to CUDA FP32 cores (3D convs, pointwise work).
struct ComputeTally {
  i64 invocations = 0;   ///< kernel (per-brick / per-tile) launches
  double flops = 0.0;
  double tc_flops = 0.0;
  i64 defers = 0;        ///< memoized-bricks revisits of busy bricks
  i64 bricks_reduced = 0;  ///< bricks passing through end-of-subgraph reduce

  ComputeTally& operator+=(const ComputeTally& o) {
    invocations += o.invocations;
    flops += o.flops;
    tc_flops += o.tc_flops;
    defers += o.defers;
    bricks_reduced += o.bricks_reduced;
    return *this;
  }
  ComputeTally operator-(const ComputeTally& o) const {
    ComputeTally d;
    d.invocations = invocations - o.invocations;
    d.flops = flops - o.flops;
    d.tc_flops = tc_flops - o.tc_flops;
    d.defers = defers - o.defers;
    d.bricks_reduced = bricks_reduced - o.bricks_reduced;
    return d;
  }
};

/// Execution-time breakdown in seconds, mirroring Figures 8, 10, 11:
/// memory side = idle + dram; compute side = compute + atomics + other;
/// both sides sum to total() under the perfect-overlap assumption.
struct Breakdown {
  double idle = 0.0;
  double dram = 0.0;
  double compute = 0.0;
  double atomics_compulsory = 0.0;
  double atomics_conflict = 0.0;
  double other = 0.0;

  double memory_side() const { return idle + dram; }
  double compute_side() const {
    return compute + atomics_compulsory + atomics_conflict + other;
  }
  double total() const { return memory_side(); }

  Breakdown& operator+=(const Breakdown& o);

  /// Render as the paper's side-by-side memory/compute stacked bars.
  Bar memory_bar(const std::string& label, double scale = 1.0) const;
  Bar compute_bar(const std::string& label, double scale = 1.0) const;
};

class CostModel {
 public:
  explicit CostModel(const MachineParams& params) : params_(params) {}

  const MachineParams& params() const { return params_; }

  double dram_time(i64 txns) const {
    return static_cast<double>(txns) / params_.txn_rate();
  }
  double atomic_time(i64 n) const {
    return static_cast<double>(n) * params_.t_atomic;
  }
  double compute_time(const ComputeTally& tally) const {
    return static_cast<double>(tally.invocations) * params_.t_launch +
           tally.flops / params_.flops_per_second +
           tally.tc_flops / params_.tensor_core_flops_per_second;
  }
  /// Scheduling/recursion/reduction overhead — the "Other" bar.
  double other_time(const ComputeTally& tally) const {
    return static_cast<double>(tally.defers) * params_.t_defer +
           static_cast<double>(tally.bricks_reduced) * params_.t_reduce_per_brick;
  }

  /// Time to compute one brick of `flops` floating point operations — the
  /// §4.3.2 microbenchmark quantity.
  double t_brick(double flops) const {
    return params_.t_launch + flops / params_.flops_per_second;
  }

  /// Aggregate-throughput compute rates assume enough concurrent bricks to
  /// fill the device. With parallelism ρ below the SM count the compute time
  /// stretches — the paper's "coarse-grained parallelism with large bricks,
  /// unsuitable for GPUs" effect (Fig. 11, 32³ bricks).
  double utilization_stretch(double rho) const {
    if (rho <= 0.0) return 1.0;
    return std::max(1.0, static_cast<double>(params_.num_sms) / rho);
  }

  /// Assemble the perfect-overlap breakdown from counters and tallies.
  /// `rho` is the available brick/tile parallelism (0 = assume saturated).
  Breakdown breakdown(const TxnCounters& txns, const ComputeTally& tally,
                      double rho = 0.0) const;

 private:
  MachineParams params_;
};

}  // namespace brickdl
