// Machine parameters for the simulated GPU. Defaults model the NVIDIA A100
// of the paper's evaluation (§4.1) plus the calibration constants the paper
// measures with microbenchmarks (§4.3): T_atomic = 87.45 ns and
// T_brick = 6.72 µs for an 8³ brick with a 3³ filter at 64 channels.
#pragma once

#include "util/common.hpp"

namespace brickdl {

struct MachineParams {
  // Memory hierarchy.
  i64 line_bytes = 32;                    ///< DRAM/L2 transaction size (§4.2)
  i64 l1_bytes = 192 * 1024;              ///< unified L1/shared per SM
  int l1_ways = 4;
  i64 l2_bytes = 40ll * 1024 * 1024;      ///< 40 MB shared L2
  int l2_ways = 16;
  double hbm_bandwidth = 1.5e12;          ///< bytes/s

  // Execution resources.
  int num_sms = 108;
  int concurrent_blocks = 128;            ///< modeled resident thread blocks

  // Calibrated cost constants (§4.3; see DESIGN.md for the derivation).
  double t_atomic = 87.45e-9;             ///< seconds per atomic operation
  /// Marginal cost of one device-side kernel launch. BrickDL launches
  /// per-brick kernels through CUDA dynamic parallelism + CUDA graphs
  /// (§3.3.4), which pipelines launches; the marginal cost is far below a
  /// host-API launch.
  double t_launch = 0.03e-6;
  /// Effective FP32 CUDA-core rate, calibrated so t_launch + flops/rate
  /// reproduces the paper's T_brick = 6.72 µs for the §4.3.2 reference brick
  /// (8³ brick, 3³ filter, 64→64 channels: 113.2 MFLOP). 3D convolutions and
  /// pointwise work run here.
  double flops_per_second = 16.93e12;
  /// Achieved TF32 tensor-core rate for 2D convolutions and GEMMs — the
  /// kernels cuDNN/XLA/TorchScript dispatch to tensor cores on an A100
  /// (peak 156 TFLOP/s; ~1/3 achieved by inference-shaped layers). This is what makes 2D CNN inference
  /// memory-bound on A100, the regime the paper's Figure 7 operates in.
  double tensor_core_flops_per_second = 50e12;
  double t_defer = 60e-9;                 ///< revisit bookkeeping, memoized
  double t_reduce_per_brick = 25e-9;      ///< end-of-subgraph reduction

  /// Transactions per second at full bandwidth (the paper's R_txn; the text
  /// prints "46M" but 1.5 TB/s / 32 B = 46.875 G txn/s — see DESIGN.md).
  double txn_rate() const { return hbm_bandwidth / static_cast<double>(line_bytes); }

  static MachineParams a100() { return MachineParams{}; }
};

}  // namespace brickdl
