// Differential suite (CTest label `differential`).
//
// Sweeps ≥50 seeded random graphs through every executor variant — kernel
// reference, vendor fallback, the three fused-baseline rule sets, and the
// Engine with padded / memoized (virtual run() and real-thread
// run_parallel()) forced across brick sides {4,8,16,32} × memo worker
// counts {1,4,16} — asserting exact elementwise
// agreement with the independent eager oracle. Failures print a replay
// command for tools/brickdl_fuzz.
//
// The sweep is sharded so one bad graph fails one test with its replay line
// instead of hiding the remaining graphs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "graph/halo.hpp"
#include "graph/serialize.hpp"
#include "ops/dispatch.hpp"
#include "testing/differential.hpp"
#include "util/rng.hpp"

namespace brickdl {
namespace {

constexpr u64 kSweepSeed = 1;

void expect_graphs_agree(int lo, int hi) {
  const DiffOptions options;  // defaults: full cross-product, tolerance 0
  for (int idx = lo; idx < hi; ++idx) {
    const std::vector<DiffFailure> failures =
        run_differential(kSweepSeed, idx, options);
    for (const DiffFailure& f : failures) {
      ADD_FAILURE() << "graph " << idx << " variant " << f.variant << ": "
                    << f.detail << "\n  replay: brickdl_fuzz " << f.replay;
    }
  }
}

TEST(Differential, Graphs00To09) { expect_graphs_agree(0, 10); }
TEST(Differential, Graphs10To19) { expect_graphs_agree(10, 20); }
TEST(Differential, Graphs20To29) { expect_graphs_agree(20, 30); }
TEST(Differential, Graphs30To39) { expect_graphs_agree(30, 40); }
TEST(Differential, Graphs40To49) { expect_graphs_agree(40, 50); }

void expect_graph_agrees(Graph g, const std::string& label) {
  const std::vector<DiffFailure> failures =
      run_differential_graph(std::move(g), /*data_seed=*/3, "(" + label + ")");
  for (const DiffFailure& f : failures) {
    ADD_FAILURE() << label << " variant " << f.variant << ": " << f.detail;
  }
}

// The three smallest tricky shape classes the fuzz sweeps exercised, pinned
// as named regressions so a future executor change that mishandles them
// fails here with a readable name instead of deep inside a sweep shard.

// Extent-1 spatial dimensions meet stride-2 windows: the brick grid along
// the degenerate axis is a single partial brick at every brick side.
TEST(DifferentialRegression, ExtentOneSpatialStridedConv) {
  Graph g("extent1_strided");
  int x = g.add_input("in", Shape{1, 1, 1, 5});
  x = g.add_conv(x, "c0", Dims{2, 2}, 2, Dims{2, 2}, Dims{1, 1});
  g.add_relu(x, "r0");
  expect_graph_agrees(std::move(g), "extent1-strided-conv");
}

// Transposed conv with output_padding: the stride-divisibility test in the
// scatter must agree between full-tensor and per-brick windows, including
// the out_pad-only last row/column.
TEST(DifferentialRegression, TransposedConvOutputPaddingAcrossBricks) {
  Graph g("deconv_outpad");
  int x = g.add_input("in", Shape{1, 2, 3, 3});
  x = g.add_deconv(x, "up0", Dims{3, 3}, 2, Dims{2, 2}, Dims{1, 1},
                   Dims{1, 1});
  g.add_conv(x, "c1", Dims{3, 3}, 2, Dims{1, 1}, Dims{1, 1});
  expect_graph_agrees(std::move(g), "deconv-outpad");
}

// Depthwise + dilated halos over odd extents that no brick side divides:
// every brick boundary needs a dilation-widened, group-preserving halo.
TEST(DifferentialRegression, DepthwiseDilatedOddExtents) {
  Graph g("depthwise_dilated");
  int x = g.add_input("in", Shape{1, 3, 5, 7});
  x = g.add_conv(x, "dw0", Dims{3, 3}, 3, Dims{1, 1}, Dims{2, 2}, Dims{2, 2},
                 /*groups=*/3);
  x = g.add_pool(x, "p0", PoolKind::kAvg, Dims{2, 2}, Dims{1, 1}, Dims{1, 1});
  g.add_sigmoid(x, "s0");
  expect_graph_agrees(std::move(g), "depthwise-dilated");
}

// Pooled vendor tiles ("vendor-par", "vendor-par-t13") refine their tiles to
// 4 per worker: extents 13 and 7 split into ragged odd tiles, and a width-1
// layer can only split along its other side.
TEST(DifferentialRegression, PooledVendorTilesOddExtents) {
  Graph g("pooled_vendor_odd");
  int x = g.add_input("in", Shape{1, 2, 13, 7});
  x = g.add_conv(x, "c0", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
  x = g.add_conv(x, "c1", Dims{1, 7}, 2, Dims{1, 1}, Dims{0, 0});
  x = g.add_pool(x, "p0", PoolKind::kMax, Dims{3, 1}, Dims{2, 1}, Dims{1, 0});
  g.add_relu(x, "r0");
  expect_graph_agrees(std::move(g), "pooled-vendor-odd");
}

// ---------------------------------------------------------------------------
// Fast-path kernel sweep (CTest label `perf` — see tests/CMakeLists.txt).
//
// conv_region / pool_region split their output into an interior box (the
// hand-flattened fast loop, no per-tap validity checks) plus boundary slabs;
// the *_generic variants run the clamping path over the whole region. The
// sweeps below assert the two paths are *bit-exact* (memcmp, not tolerance)
// across a seeded corpus of shapes, including windows where the interior is
// empty (every output point is boundary) and windows with enough halo margin
// that the interior covers the whole region (no boundary slabs at all).

/// Run `node` (conv or pool) over [out_lo, out_lo+out_extent) with both the
/// fast-path and generic kernels on the same seeded input window, widened by
/// `margin` on both sides of every spatial dim, and require identical bits.
void expect_fast_path_bit_exact(const Graph& g, int node_id, const Dims& out_lo,
                                const Dims& out_extent, i64 margin, u64 seed,
                                const std::string& label) {
  const Node& node = g.node(node_id);
  const Shape in_shape = g.input_shapes(node)[0];
  Dims in_lo, in_extent;
  input_window_blocked(node, out_lo, out_extent, &in_lo, &in_extent);
  for (int d = 1; d < in_lo.rank(); ++d) {
    in_lo[d] -= margin;
    in_extent[d] += 2 * margin;
  }
  const i64 in_ch = in_shape.channels();
  std::vector<float> window(static_cast<size_t>(in_ch * in_extent.product()));
  Rng rng(seed);
  for (float& v : window) v = rng.next_float(-1.0f, 1.0f);
  RegionInput ri{window, in_lo, in_extent, in_ch};

  const i64 out_ch = node.out_shape.channels();
  const size_t out_elems = static_cast<size_t>(out_ch * out_extent.product());
  // Distinct canaries: a position neither path writes still compares unequal.
  std::vector<float> fast(out_elems, -123.0f);
  std::vector<float> generic(out_elems, -321.0f);
  WeightStore ws(seed ^ 0x5eedULL);
  if (node.kind == OpKind::kConv) {
    conv_region(node, ri, ws.weights(node), out_lo, out_extent, fast);
    conv_region_generic(node, ri, ws.weights(node), out_lo, out_extent,
                        generic);
  } else {
    ASSERT_EQ(node.kind, OpKind::kPool) << label;
    pool_region(node, ri, out_lo, out_extent, fast);
    pool_region_generic(node, ri, out_lo, out_extent, generic);
  }
  if (std::memcmp(fast.data(), generic.data(),
                  out_elems * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < out_elems; ++i) {
    if (std::memcmp(&fast[i], &generic[i], sizeof(float)) != 0) {
      ADD_FAILURE() << label << ": fast path diverges from generic at flat "
                    << i << ": fast=" << fast[i] << " generic=" << generic[i]
                    << "\n  node: " << node.name
                    << " out_lo=" << out_lo.str()
                    << " out_extent=" << out_extent.str()
                    << " margin=" << margin << " seed=" << seed;
      return;
    }
  }
}

/// For each generated op, exercise three window styles: the exact input
/// window (boundary clamping on every side), a margin-4 halo window (the
/// interior covers the whole region), and a random interior sub-tile with a
/// nonzero out_lo.
void sweep_windows(const Graph& g, int node_id, Rng* rng, u64 seed,
                   const std::string& label) {
  const Node& node = g.node(node_id);
  const Dims out = node.out_shape.blocked_dims();
  const Dims zero = Dims::filled(out.rank(), 0);
  expect_fast_path_bit_exact(g, node_id, zero, out, 0, seed, label + "/exact");
  expect_fast_path_bit_exact(g, node_id, zero, out, 4, seed,
                             label + "/wide-halo");
  Dims lo = zero, extent = out;
  for (int d = 0; d < out.rank(); ++d) {
    lo[d] = static_cast<i64>(rng->next_below(static_cast<u64>(out[d])));
    extent[d] =
        1 + static_cast<i64>(rng->next_below(static_cast<u64>(out[d] - lo[d])));
  }
  expect_fast_path_bit_exact(g, node_id, lo, extent, 1, seed, label + "/tile");
}

TEST(FastPathPerf, SeededConvSweep) {
  Rng rng(0xfa57c0de);
  int executed = 0;
  for (int it = 0; it < 36; ++it) {
    const int sp_rank = rng.next_below(4) == 0 ? 3 : 2;
    Dims shape_dims;
    shape_dims.push_back(1 + static_cast<i64>(rng.next_below(2)));  // batch
    const i64 in_ch = 1 + static_cast<i64>(rng.next_below(4));
    shape_dims.push_back(in_ch);
    for (int d = 0; d < sp_rank; ++d) {
      shape_dims.push_back(1 + static_cast<i64>(rng.next_below(6)));
    }
    Dims kernel, stride, padding, dilation;
    for (int d = 0; d < sp_rank; ++d) {
      kernel.push_back(1 + static_cast<i64>(rng.next_below(3)));
      stride.push_back(1 + static_cast<i64>(rng.next_below(2)));
      padding.push_back(static_cast<i64>(rng.next_below(3)));
      dilation.push_back(1 + static_cast<i64>(rng.next_below(2)));
    }
    Graph g("fastpath_conv");
    const int x = g.add_input("in", Shape(shape_dims));
    int node_id;
    std::string label = "conv#" + std::to_string(it);
    // Random attribute draws can collapse the output extent (dilated kernel
    // wider than the padded input); shape inference rejects those — skip.
    try {
      if (rng.next_below(4) == 0) {
        Dims out_pad;
        for (int d = 0; d < sp_rank; ++d) {
          out_pad.push_back(
              static_cast<i64>(rng.next_below(static_cast<u64>(stride[d]))));
        }
        const i64 out_ch = 1 + static_cast<i64>(rng.next_below(4));
        node_id = g.add_deconv(x, "op", kernel, out_ch, stride, padding,
                               out_pad, dilation);
        label += "/transposed";
      } else {
        const i64 groups = rng.next_below(3) == 0 ? in_ch : 1;
        const i64 out_ch = groups * (1 + static_cast<i64>(rng.next_below(3)));
        node_id = g.add_conv(x, "op", kernel, out_ch, stride, padding,
                             dilation, groups);
        if (groups > 1) label += "/grouped";
      }
    } catch (const std::exception&) {
      continue;
    }
    sweep_windows(g, node_id, &rng, 0x9000 + static_cast<u64>(it), label);
    ++executed;
  }
  // The sweep must not be vacuous: most random draws are feasible shapes.
  EXPECT_GE(executed, 18);
}

TEST(FastPathPerf, SeededPoolSweep) {
  Rng rng(0xb007ed);
  int executed = 0;
  for (int it = 0; it < 24; ++it) {
    const int sp_rank = rng.next_below(4) == 0 ? 3 : 2;
    Dims shape_dims;
    shape_dims.push_back(1 + static_cast<i64>(rng.next_below(2)));
    shape_dims.push_back(1 + static_cast<i64>(rng.next_below(4)));
    for (int d = 0; d < sp_rank; ++d) {
      shape_dims.push_back(1 + static_cast<i64>(rng.next_below(6)));
    }
    Dims window, stride, padding;
    for (int d = 0; d < sp_rank; ++d) {
      window.push_back(1 + static_cast<i64>(rng.next_below(3)));
      stride.push_back(1 + static_cast<i64>(rng.next_below(2)));
      padding.push_back(static_cast<i64>(rng.next_below(2)));
    }
    const PoolKind kind = rng.next_below(2) ? PoolKind::kMax : PoolKind::kAvg;
    Graph g("fastpath_pool");
    const int x = g.add_input("in", Shape(shape_dims));
    int node_id;
    try {
      node_id = g.add_pool(x, "op", kind, window, stride, padding);
    } catch (const std::exception&) {
      continue;  // window collapsed the output extent; see conv sweep
    }
    sweep_windows(g, node_id, &rng, 0xa000 + static_cast<u64>(it),
                  "pool#" + std::to_string(it));
    ++executed;
  }
  EXPECT_GE(executed, 12);
}

// 3x3 stride-1 conv with padding 1 over a 2x2 image, exact input window:
// every output point has at least one tap outside the window, so the interior
// box is empty and the fast path must route the whole region through the
// boundary (generic) code.
TEST(FastPathPerf, EmptyInteriorConv) {
  Graph g("empty_interior");
  const int x = g.add_input("in", Shape{1, 2, 2, 2});
  const int c =
      g.add_conv(x, "op", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
  const Dims out = g.node(c).out_shape.blocked_dims();
  expect_fast_path_bit_exact(g, c, Dims::filled(out.rank(), 0), out,
                             /*margin=*/0, /*seed=*/11, "empty-interior-conv");
}

// The same stencil with a margin-3 halo window: every tap of every output
// point reads inside the gathered window, so the interior box covers the
// whole region and the boundary path never runs.
TEST(FastPathPerf, WholeRegionInteriorConv) {
  Graph g("whole_interior");
  const int x = g.add_input("in", Shape{1, 2, 5, 5});
  const int c =
      g.add_conv(x, "op", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
  const Dims out = g.node(c).out_shape.blocked_dims();
  expect_fast_path_bit_exact(g, c, Dims::filled(out.rank(), 0), out,
                             /*margin=*/3, /*seed=*/12, "whole-interior-conv");
}

// Shapes aimed at every edge of the vectorized conv micro-kernel (a strip of
// 4 output positions along the innermost dim × a block of 4 output channels
// of one group): channel tails that are not a multiple of the block and
// groups smaller than one block (depthwise), stride 2 (a strip loads 8
// floats; strips at the window's end shift their load back), dilation 2,
// rows narrower than one strip, ragged row tails, the ResNet 7x7/s2 stem,
// and fused ReLU. Each runs over the exact, wide-halo and random-tile
// windows of sweep_windows.
TEST(FastPathPerf, MicroKernelEdgeShapes) {
  struct EdgeCase {
    const char* label;
    Shape in;
    Dims kernel, stride, padding, dilation;
    i64 out_channels;
    i64 groups;
    bool relu;
  };
  const EdgeCase cases[] = {
      {"m6-tail", Shape{1, 5, 9, 9}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 6, 1,
       false},
      {"m9-tail-1x1", Shape{1, 7, 6, 10}, {1, 1}, {1, 1}, {0, 0}, {1, 1}, 9,
       1, false},
      {"m3-below-block", Shape{1, 4, 8, 8}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 3,
       1, false},
      {"depthwise", Shape{1, 8, 9, 9}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 8, 8,
       false},
      {"grouped-m6", Shape{1, 4, 8, 11}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 12,
       2, false},
      {"stride2-3x3", Shape{1, 5, 17, 17}, {3, 3}, {2, 2}, {1, 1}, {1, 1}, 8,
       1, false},
      {"stride2-1x1", Shape{1, 6, 14, 14}, {1, 1}, {2, 2}, {0, 0}, {1, 1}, 8,
       1, false},
      {"stride2-narrow", Shape{2, 3, 5, 5}, {3, 3}, {2, 2}, {1, 1}, {1, 1},
       4, 1, false},
      {"dilation2", Shape{1, 4, 12, 12}, {3, 3}, {1, 1}, {2, 2}, {2, 2}, 5, 1,
       false},
      {"width2", Shape{1, 3, 6, 2}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 4, 1,
       false},
      {"width3-1x1", Shape{2, 5, 4, 3}, {1, 1}, {1, 1}, {0, 0}, {1, 1}, 4, 1,
       false},
      {"ragged7", Shape{1, 4, 7, 7}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 4, 1,
       false},
      {"ragged13-relu", Shape{1, 4, 5, 13}, {3, 3}, {1, 1}, {1, 1}, {1, 1},
       8, 1, true},
      {"stem-7x7s2", Shape{1, 3, 40, 40}, {7, 7}, {2, 2}, {3, 3}, {1, 1}, 16,
       1, true},
      {"conv3d", Shape{1, 3, 5, 6, 7}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1},
       {1, 1, 1}, 5, 1, false},
      // The channel-vectorized kernel: 8-channel blocks with shifted tails,
      // groups below one block, any stride or dilation, res-shaped regions
      // and point counts that are not a multiple of the position block.
      {"m8-block", Shape{1, 6, 7, 9}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 8, 1,
       false},
      {"m12-tail", Shape{1, 5, 6, 6}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 12, 1,
       false},
      {"m20-tail-1x1", Shape{1, 9, 5, 7}, {1, 1}, {1, 1}, {0, 0}, {1, 1}, 20,
       1, false},
      {"m24-blocks", Shape{1, 4, 6, 5}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 24, 1,
       false},
      {"m4-below-block", Shape{1, 3, 6, 6}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 4,
       1, false},
      {"m5-below-block", Shape{1, 3, 6, 6}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 5,
       1, false},
      {"m7-below-block", Shape{1, 3, 6, 6}, {1, 1}, {1, 1}, {0, 0}, {1, 1}, 7,
       1, false},
      {"grouped-m8", Shape{1, 6, 7, 7}, {3, 3}, {1, 1}, {1, 1}, {1, 1}, 16, 2,
       false},
      {"stride3", Shape{1, 5, 13, 14}, {3, 3}, {3, 3}, {1, 1}, {1, 1}, 8, 1,
       false},
      {"stride2-dilation2", Shape{1, 4, 15, 15}, {3, 3}, {2, 2}, {2, 2},
       {2, 2}, 12, 1, false},
      {"res4-1x1-64to256", Shape{1, 64, 4, 4}, {1, 1}, {1, 1}, {0, 0},
       {1, 1}, 256, 1, false},
      {"res4-1x1-256to64", Shape{1, 256, 4, 4}, {1, 1}, {1, 1}, {0, 0},
       {1, 1}, 64, 1, true},
      {"points-not-block-multiple", Shape{1, 6, 5, 7}, {3, 3}, {1, 1}, {1, 1},
       {1, 1}, 16, 1, false},
  };
  Rng rng(0xed9e5);
  u64 seed = 0xb000;
  for (const EdgeCase& c : cases) {
    Graph g("edge");
    const int x = g.add_input("in", c.in);
    const int node = g.add_conv(x, "op", c.kernel, c.out_channels, c.stride,
                                c.padding, c.dilation, c.groups, c.relu);
    sweep_windows(g, node, &rng, ++seed, c.label);
  }
  // Transposed stride-1 convs share the interior path (negative tap steps).
  Graph g("edge_transposed");
  const int x = g.add_input("in", Shape{1, 5, 6, 9});
  const int node =
      g.add_deconv(x, "op", Dims{3, 3}, 6, Dims{1, 1}, Dims{1, 1});
  sweep_windows(g, node, &rng, ++seed, "transposed-m6");
}

// Fused ReLU in the vector kernel uses the scalar path's predicate: -0.0
// and NaN pass through, negatives become +0.0. A sum of -1e-60 rounds to
// float -0.0; a NaN input makes every channel of its position NaN.
TEST(FastPathPerf, VectorReluKeepsNegativeZeroAndNaN) {
  Graph g("relu_signs");
  const int x = g.add_input("in", Shape{1, 1, 4, 8});
  const int c = g.add_conv(x, "op", Dims{1, 1}, 8, Dims{1, 1}, Dims{0, 0}, {},
                           1, /*fused_relu=*/true);
  const Node& node = g.node(c);
  std::vector<float> in(32, 0.0f);
  in[0] = 1e-30f;
  in[5] = std::numeric_limits<float>::quiet_NaN();
  in[6] = 2.0f;
  RegionInput ri{in, Dims{0, 0, 0}, Dims{1, 4, 8}, 1};
  Tensor w(node.weight_dims);
  for (i64 m = 0; m < 8; ++m) w.flat(m) = m % 2 == 0 ? 1e-30f : -1e-30f;
  WeightStore ws;
  ws.set(node, w);
  std::vector<float> fast(256, 7.0f), generic(256, 9.0f);
  conv_region(node, ri, ws.weights(node), Dims{0, 0, 0}, Dims{1, 4, 8}, fast);
  conv_region_generic(node, ri, ws.weights(node), Dims{0, 0, 0},
                      Dims{1, 4, 8}, generic);
  ASSERT_EQ(std::memcmp(fast.data(), generic.data(), 256 * sizeof(float)), 0);
  EXPECT_TRUE(fast[32] == 0.0f && std::signbit(fast[32]));  // -0.0 kept
  EXPECT_TRUE(std::isnan(fast[5]));                          // NaN kept
  EXPECT_GT(fast[6], 0.0f);
  EXPECT_TRUE(fast[32 + 6] == 0.0f && !std::signbit(fast[32 + 6]));
}

// WeightStore keeps conv weights once, in the kernel's storage order. A
// canonical tensor given to set() must come back bit for bit through the
// oracle's accessor, and compute_region must use it as a canonical
// [M][C/groups][kh][kw] tensor: one output checked by hand.
TEST(WeightStoreLayout, SetRoundTripsAndConvUsesCanonicalMeaning) {
  Graph g("layout");
  const int x = g.add_input("in", Shape{1, 4, 3, 3});
  const int c = g.add_conv(x, "op", Dims{3, 3}, 10, Dims{1, 1}, Dims{1, 1},
                           {}, 2);
  const Node& node = g.node(c);
  Tensor w(node.weight_dims);  // [10][2][3][3]
  Rng rng(5);
  w.fill_random(rng, -1.0f, 1.0f);
  WeightStore ws;
  ws.set(node, w);
  const Tensor back = ws.canonical(node);
  ASSERT_EQ(back.dims(), w.dims());
  EXPECT_EQ(std::memcmp(back.data(), w.data(),
                        static_cast<size_t>(w.elements()) * sizeof(float)),
            0);

  std::vector<float> in(4 * 9);
  for (float& v : in) v = rng.next_float(-1.0f, 1.0f);
  RegionInput ri{in, Dims{0, 0, 0}, Dims{1, 3, 3}, 4};
  std::vector<float> out(10 * 9);
  compute_region(node, std::span<const RegionInput>(&ri, 1), ws.weights(node),
                 Dims{0, 0, 0}, Dims{1, 3, 3}, out);
  // Output channel 7 (group 1, input channels 2..3) at the centre (1, 1):
  // taps row-major, then the group's channels, in double.
  double acc = 0.0;
  for (i64 t = 0; t < 9; ++t) {
    for (i64 cg = 0; cg < 2; ++cg) {
      acc += static_cast<double>(in[static_cast<size_t>((2 + cg) * 9 + t)]) *
             w.flat((7 * 2 + cg) * 9 + t);
    }
  }
  EXPECT_EQ(out[7 * 9 + 4], static_cast<float>(acc));
}

// Pool analogues of the two extremes above (max pooling: out-of-window reads
// as zero, the documented BrickDL padding semantics).
TEST(FastPathPerf, EmptyAndWholeInteriorPool) {
  Graph g("pool_extremes");
  const int x = g.add_input("in", Shape{1, 3, 2, 2});
  const int p = g.add_pool(x, "op", PoolKind::kMax, Dims{3, 3}, Dims{1, 1},
                           Dims{1, 1});
  const Dims out = g.node(p).out_shape.blocked_dims();
  expect_fast_path_bit_exact(g, p, Dims::filled(out.rank(), 0), out,
                             /*margin=*/0, /*seed=*/13, "empty-interior-pool");
  expect_fast_path_bit_exact(g, p, Dims::filled(out.rank(), 0), out,
                             /*margin=*/3, /*seed=*/13, "whole-interior-pool");
}

TEST(Differential, GeneratorIsDeterministic) {
  for (int idx : {0, 7, 23}) {
    const u64 s = graph_seed(kSweepSeed, idx);
    EXPECT_EQ(serialize_graph(random_graph(s)),
              serialize_graph(random_graph(s)));
  }
}

TEST(Differential, GeneratorCoversOpFamilies) {
  // Over a modest sweep the generator must exercise every mergeable family
  // plus join structure; otherwise the differential pass is vacuous.
  bool saw[16] = {};
  bool saw_transposed = false, saw_strided = false, saw_grouped = false,
       saw_3d = false;
  for (int idx = 0; idx < 50; ++idx) {
    const Graph g = random_graph(graph_seed(kSweepSeed, idx));
    if (g.node(0).out_shape.spatial_rank() == 3) saw_3d = true;
    for (const Node& n : g.nodes()) {
      saw[static_cast<int>(n.kind)] = true;
      if (n.kind == OpKind::kConv) {
        if (n.attrs.transposed) saw_transposed = true;
        if (n.attrs.stride.product() > 1) saw_strided = true;
        if (n.attrs.groups > 1) saw_grouped = true;
      }
    }
  }
  for (OpKind kind : {OpKind::kConv, OpKind::kPool, OpKind::kRelu,
                      OpKind::kSigmoid, OpKind::kBatchNorm, OpKind::kAdd,
                      OpKind::kConcat, OpKind::kGlobalAvgPool, OpKind::kDense,
                      OpKind::kSoftmax}) {
    EXPECT_TRUE(saw[static_cast<int>(kind)])
        << "op kind " << static_cast<int>(kind) << " never generated";
  }
  EXPECT_TRUE(saw_transposed);
  EXPECT_TRUE(saw_strided);
  EXPECT_TRUE(saw_grouped);
  EXPECT_TRUE(saw_3d);
}

}  // namespace
}  // namespace brickdl
