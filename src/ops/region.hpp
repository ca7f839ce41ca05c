// Region kernels ("minidnn") — the vendor-library substitute.
//
// Every mergeable operator is implemented as a *region kernel*: it computes
// an arbitrary window of the output (all channels) from dense input windows.
// Full-tensor execution, tiled vendor-style execution, and per-brick merged
// execution are all expressed as sequences of region-kernel invocations over
// different window decompositions, so numerics are identical by construction
// across executors.
//
// Window coordinates are in *blocked* space: [batch, spatial...]. Windows may
// extend past the layer boundary (halo); positions outside a gathered window
// read as zero, which matches zero-padded convolution semantics. Max pooling
// therefore also treats out-of-bounds as zero (documented divergence from
// frameworks that ignore padding in max; consistent across all our paths).
//
// Vectorized kernels stay bit-identical to the scalar ones and to the eager
// oracle. Each output element keeps its own double accumulator and the same
// summation order (conv: kernel taps row-major, then the group's input
// channels). SIMD lanes only compute different outputs side by side. A
// float×float product is exact in double, so widening it in a vector lane
// or fusing it into an FMA rounds exactly like a scalar multiply-then-add.
#pragma once

#include <span>

#include "graph/halo.hpp"
#include "graph/op.hpp"

namespace brickdl {

/// One dense input window: data laid out [channels, extent...] row-major,
/// covering blocked coordinates [lo, lo+extent).
struct RegionInput {
  std::span<const float> data;
  Dims lo;
  Dims extent;
  i64 channels = 0;
};

/// Where a conv node's weights live in storage. Node::weight_dims gives the
/// canonical order [M, C/groups, kernel...]; storage keeps them
/// output-channel-innermost, [group][tap][c][m] (c and m index the group's
/// input and output channels), so the weights of consecutive output
/// channels at one (tap, input channel) step are one contiguous read.
struct ConvWeightLayout {
  explicit ConvWeightLayout(const Node& node)
      : m_group(node.attrs.out_channels / node.attrs.groups),
        c_group(node.weight_dims[1]),
        taps(node.attrs.kernel.product()) {}

  /// Storage index of canonical weight w[m][c][tap] (m over all outputs).
  i64 index(i64 m, i64 c, i64 tap) const {
    const i64 g = m / m_group;
    return ((g * taps + tap) * c_group + c) * m_group + (m - g * m_group);
  }

  i64 m_group;
  i64 c_group;
  i64 taps;
};

/// Compute the output window [out_lo, out_lo+out_extent) of `node` into
/// `out` (laid out [out_channels, out_extent...]).
///
/// * kConv / kPool take one input whose window must cover
///   input_window_blocked(node, out_lo, out_extent) — it may be larger.
/// * Pointwise ops (kRelu, kSigmoid, kSoftmax, kBatchNorm, kAdd, kConcat)
///   take windows congruent with the output window.
/// * `weights` is the node's flattened weight storage (empty if none), in
///   WeightStore order: conv weights as ConvWeightLayout says, every other
///   op's in Node::weight_dims order.
i64 region_out_channels(const Node& node, std::span<const RegionInput> inputs);

void compute_region(const Node& node, std::span<const RegionInput> inputs,
                    std::span<const float> weights, const Dims& out_lo,
                    const Dims& out_extent, std::span<float> out);

/// Zero all positions of a window that fall outside [0, bounds) in blocked
/// space. The padded-bricks executor applies this after every intermediate
/// layer so recomputed halo matches the true zero-padding semantics.
void mask_region_outside(const Dims& lo, const Dims& extent, i64 channels,
                         const Dims& bounds, std::span<float> data);

// Individual kernels (exposed for unit testing; compute_region dispatches).
// conv/pool split the output into an interior box (hand-flattened fast loop,
// no per-tap validity checks; conv's runs a SIMD micro-kernel) plus boundary
// slabs handled by the generic clamping code; the *_generic variants run the
// clamping path over the whole region and exist so tests can assert the fast
// path is bit-exact.
void conv_region(const Node& node, const RegionInput& input,
                 std::span<const float> weights, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out);
void conv_region_generic(const Node& node, const RegionInput& input,
                         std::span<const float> weights, const Dims& out_lo,
                         const Dims& out_extent, std::span<float> out);
void pool_region(const Node& node, const RegionInput& input, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out);
void pool_region_generic(const Node& node, const RegionInput& input,
                         const Dims& out_lo, const Dims& out_extent,
                         std::span<float> out);
void relu_region(const RegionInput& input, std::span<float> out);
void sigmoid_region(const RegionInput& input, std::span<float> out);
void add_region(const RegionInput& lhs, const RegionInput& rhs,
                std::span<float> out);
void concat_region(std::span<const RegionInput> inputs, std::span<float> out);
void softmax_region(const RegionInput& input, std::span<float> out);
void batchnorm_region(const RegionInput& input, std::span<const float> weights,
                      std::span<float> out);

}  // namespace brickdl
