// Parameterized property sweeps (TEST_P):
//  * ExecutorEquivalence — every merged strategy must reproduce the naive
//    reference bit-for-bit(±fp) on every operator-chain archetype, for
//    several brick sizes. This is the library's load-bearing invariant.
//  * BrickRoundTrip — canonical -> bricked -> canonical is lossless for all
//    shape/brick combinations, including non-multiple boundary masking.
//  * WindowGather — bricked window reads equal canonical window reads for
//    randomized (possibly out-of-bounds) windows.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "core/engine.hpp"
#include "core/halo_plan.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

// ---------------------------------------------------------------------------
// ExecutorEquivalence
// ---------------------------------------------------------------------------

enum class ChainKind {
  kConvChain,
  kStrided,
  kDilated,
  kDepthwise,
  kTransposed,
  kResidual,
  kInceptionFork,
  kPoolTerminated,
  kNormalizeChain,
  kConv3D,
  kMixedBatch,
  kAsymmetricKernels,
};

const char* chain_name(ChainKind kind) {
  switch (kind) {
    case ChainKind::kConvChain: return "ConvChain";
    case ChainKind::kStrided: return "Strided";
    case ChainKind::kDilated: return "Dilated";
    case ChainKind::kDepthwise: return "Depthwise";
    case ChainKind::kTransposed: return "Transposed";
    case ChainKind::kResidual: return "Residual";
    case ChainKind::kInceptionFork: return "InceptionFork";
    case ChainKind::kPoolTerminated: return "PoolTerminated";
    case ChainKind::kNormalizeChain: return "NormalizeChain";
    case ChainKind::kConv3D: return "Conv3D";
    case ChainKind::kMixedBatch: return "MixedBatch";
    case ChainKind::kAsymmetricKernels: return "AsymmetricKernels";
  }
  return "?";
}

Graph build_chain(ChainKind kind) {
  Graph g(chain_name(kind));
  switch (kind) {
    case ChainKind::kConvChain: {
      int x = g.add_input("x", Shape{1, 3, 14, 14});
      x = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
      x = g.add_conv(x, "c2", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
      g.add_conv(x, "c3", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
      break;
    }
    case ChainKind::kStrided: {
      int x = g.add_input("x", Shape{1, 3, 17, 17});
      x = g.add_conv(x, "s2", Dims{3, 3}, 4, Dims{2, 2}, Dims{1, 1});
      g.add_conv(x, "c", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
      break;
    }
    case ChainKind::kDilated: {
      int x = g.add_input("x", Shape{1, 2, 16, 16});
      x = g.add_conv(x, "d2", Dims{3, 3}, 4, Dims{1, 1}, Dims{2, 2},
                     Dims{2, 2});
      g.add_relu(x, "r");
      break;
    }
    case ChainKind::kDepthwise: {
      int x = g.add_input("x", Shape{1, 6, 12, 12});
      x = g.add_conv(x, "dw", Dims{3, 3}, 6, Dims{1, 1}, Dims{1, 1}, {}, 6);
      g.add_conv(x, "pw", Dims{1, 1}, 4, Dims{1, 1}, Dims{0, 0});
      break;
    }
    case ChainKind::kTransposed: {
      int x = g.add_input("x", Shape{1, 3, 7, 7});
      x = g.add_deconv(x, "up", Dims{4, 4}, 3, Dims{2, 2}, Dims{1, 1});
      g.add_relu(x, "r");
      break;
    }
    case ChainKind::kResidual: {
      int x = g.add_input("x", Shape{1, 4, 12, 12});
      const int c1 = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
      const int c2 = g.add_conv(c1, "c2", Dims{3, 3}, 4, Dims{1, 1},
                                Dims{1, 1});
      const int a = g.add_add(c2, x, "add");
      g.add_relu(a, "r");
      break;
    }
    case ChainKind::kInceptionFork: {
      int x = g.add_input("x", Shape{1, 4, 10, 10});
      const int b1 = g.add_conv(x, "b1", Dims{1, 1}, 2, Dims{1, 1}, Dims{0, 0});
      const int b2 = g.add_conv(x, "b2", Dims{3, 3}, 2, Dims{1, 1}, Dims{1, 1});
      const int b3 = g.add_pool(x, "b3", PoolKind::kMax, Dims{3, 3}, Dims{1, 1},
                                Dims{1, 1});
      g.add_concat({b1, b2, b3}, "cat");
      break;
    }
    case ChainKind::kPoolTerminated: {
      int x = g.add_input("x", Shape{1, 3, 14, 14});
      x = g.add_conv(x, "c", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
      x = g.add_relu(x, "r");
      g.add_pool(x, "p", PoolKind::kAvg, Dims{2, 2}, Dims{2, 2});
      break;
    }
    case ChainKind::kNormalizeChain: {
      int x = g.add_input("x", Shape{1, 5, 12, 12});
      x = g.add_conv(x, "c", Dims{3, 3}, 5, Dims{1, 1}, Dims{1, 1});
      x = g.add_batchnorm(x, "bn");
      x = g.add_sigmoid(x, "sg");
      g.add_softmax(x, "sm");
      break;
    }
    case ChainKind::kConv3D: {
      int x = g.add_input("x", Shape{1, 2, 9, 9, 9});
      x = g.add_conv(x, "c1", Dims{3, 3, 3}, 3, Dims{1, 1, 1}, Dims{1, 1, 1});
      g.add_conv(x, "c2", Dims{3, 3, 3}, 2, Dims{1, 1, 1}, Dims{0, 0, 0});
      break;
    }
    case ChainKind::kMixedBatch: {
      int x = g.add_input("x", Shape{3, 2, 11, 11});
      x = g.add_conv(x, "c1", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
      g.add_conv(x, "c2", Dims{3, 3}, 2, Dims{2, 2}, Dims{1, 1});
      break;
    }
    case ChainKind::kAsymmetricKernels: {
      int x = g.add_input("x", Shape{1, 3, 12, 12});
      x = g.add_conv(x, "c1x5", Dims{1, 5}, 4, Dims{1, 1}, Dims{0, 2});
      g.add_conv(x, "c5x1", Dims{5, 1}, 3, Dims{1, 1}, Dims{2, 0});
      break;
    }
  }
  return g;
}

Subgraph whole_graph_subgraph(const Graph& g) {
  Subgraph sg;
  for (const Node& node : g.nodes()) {
    if (node.kind == OpKind::kInput) {
      sg.external_inputs.push_back(node.id);
    } else {
      sg.nodes.push_back(node.id);
    }
  }
  sg.merged = true;
  return sg;
}

struct EquivalenceParam {
  ChainKind kind;
  i64 brick_side;
  Strategy strategy;
};

// gtest puts this value in each CTest name. Its default is a byte dump of
// the struct, padding included, and the padding is uninitialized, so the
// names changed from build to build. This prints the same dump with the
// padding bytes as zeros, so the names stay what they were, minus the noise.
void PrintTo(const EquivalenceParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(EquivalenceParam)] = {};
  std::memcpy(bytes + offsetof(EquivalenceParam, kind), &p.kind,
              sizeof p.kind);
  std::memcpy(bytes + offsetof(EquivalenceParam, brick_side), &p.brick_side,
              sizeof p.brick_side);
  std::memcpy(bytes + offsetof(EquivalenceParam, strategy), &p.strategy,
              sizeof p.strategy);
  *os << sizeof bytes << "-byte object <";
  for (size_t i = 0; i < sizeof bytes; ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

std::string param_name(const testing::TestParamInfo<EquivalenceParam>& info) {
  return std::string(chain_name(info.param.kind)) + "_B" +
         std::to_string(info.param.brick_side) + "_" +
         strategy_name(info.param.strategy);
}

class ExecutorEquivalence : public testing::TestWithParam<EquivalenceParam> {};

TEST_P(ExecutorEquivalence, MergedMatchesReference) {
  const EquivalenceParam& param = GetParam();
  const Graph g = build_chain(param.kind);
  const Subgraph sg = whole_graph_subgraph(g);
  const Node& terminal = g.node(sg.terminal());

  Dims brick = terminal.out_shape.blocked_dims();
  for (int d = 0; d < brick.rank(); ++d) {
    brick[d] = std::min(d == 0 ? 1 : param.brick_side, brick[d]);
  }

  WeightStore ws(31);
  Tensor input(g.node(sg.external_inputs[0]).out_shape);
  Rng rng(1234);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  NumericBackend backend(g, ws, 4);
  std::unordered_map<int, TensorId> io;
  for (int ext : sg.external_inputs) {
    io[ext] = backend.register_tensor(g.node(ext).out_shape,
                                      Layout::kCanonical, {}, "in");
    backend.bind(io[ext], reference[static_cast<size_t>(ext)]);
  }
  io[sg.terminal()] = backend.register_tensor(terminal.out_shape,
                                              Layout::kBricked, brick, "out");

  if (param.strategy == Strategy::kPadded) {
    const HaloPlan plan(g, sg, brick);
    PaddedExecutor exec(g, sg, plan, backend, io);
    ASSERT_TRUE(exec.run_checked().ok());
  } else {
    MemoizedExecutor exec(g, sg, brick, backend, io, 4);
    ASSERT_TRUE(exec.run_checked().ok());
  }

  EXPECT_TRUE(allclose(backend.read(io[sg.terminal()]),
                       reference[static_cast<size_t>(sg.terminal())], 1e-4));
}

std::vector<EquivalenceParam> equivalence_params() {
  std::vector<EquivalenceParam> params;
  for (ChainKind kind :
       {ChainKind::kConvChain, ChainKind::kStrided, ChainKind::kDilated,
        ChainKind::kDepthwise, ChainKind::kTransposed, ChainKind::kResidual,
        ChainKind::kInceptionFork, ChainKind::kPoolTerminated,
        ChainKind::kNormalizeChain, ChainKind::kConv3D, ChainKind::kMixedBatch,
        ChainKind::kAsymmetricKernels}) {
    for (i64 brick : {2, 4}) {
      for (Strategy strategy : {Strategy::kPadded, Strategy::kMemoized}) {
        params.push_back({kind, brick, strategy});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllChains, ExecutorEquivalence,
                         testing::ValuesIn(equivalence_params()), param_name);

// ---------------------------------------------------------------------------
// BrickRoundTrip
// ---------------------------------------------------------------------------

struct RoundTripParam {
  i64 batch, channels, h, w, brick;
};

class BrickRoundTrip : public testing::TestWithParam<RoundTripParam> {};

TEST_P(BrickRoundTrip, Lossless) {
  const auto& p = GetParam();
  Tensor src(Shape{p.batch, p.channels, p.h, p.w});
  Rng rng(p.h * 131 + p.w);
  src.fill_random(rng);
  const Dims brick{1, std::min(p.brick, p.h), std::min(p.brick, p.w)};
  const BrickedTensor bricked = BrickedTensor::from_canonical(src, brick);
  EXPECT_TRUE(allclose(src, bricked.to_canonical(), 0.0));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BrickRoundTrip,
    testing::Values(RoundTripParam{1, 1, 4, 4, 4}, RoundTripParam{1, 3, 8, 8, 4},
                    RoundTripParam{2, 2, 7, 9, 4}, RoundTripParam{1, 4, 13, 5, 4},
                    RoundTripParam{3, 1, 16, 16, 8},
                    RoundTripParam{1, 2, 9, 9, 16},  // brick larger than layer
                    RoundTripParam{1, 5, 10, 3, 2},
                    RoundTripParam{2, 3, 31, 17, 8}));

// ---------------------------------------------------------------------------
// WindowGather
// ---------------------------------------------------------------------------

class WindowGather : public testing::TestWithParam<int> {};

TEST_P(WindowGather, BrickedMatchesCanonicalReference) {
  Rng rng(static_cast<u64>(GetParam()) * 7919);
  const i64 h = 5 + static_cast<i64>(rng.next_below(20));
  const i64 w = 5 + static_cast<i64>(rng.next_below(20));
  const i64 channels = 1 + static_cast<i64>(rng.next_below(4));
  Tensor src(Shape{1, channels, h, w});
  src.fill_random(rng);
  const BrickedTensor bricked = BrickedTensor::from_canonical(src, Dims{1, 4, 4});

  for (int trial = 0; trial < 8; ++trial) {
    const Dims lo{0, static_cast<i64>(rng.next_below(static_cast<u64>(h))) - 3,
                  static_cast<i64>(rng.next_below(static_cast<u64>(w))) - 3};
    const Dims extent{1, 1 + static_cast<i64>(rng.next_below(9)),
                      1 + static_cast<i64>(rng.next_below(9))};
    std::vector<float> got(
        static_cast<size_t>(channels * extent.product()), -1.0f);
    bricked.read_window(lo, extent, got);

    // Reference: direct canonical gather with zero fill.
    const i64 points = extent.product();
    for (i64 c = 0; c < channels; ++c) {
      for (i64 i = 0; i < extent[1]; ++i) {
        for (i64 j = 0; j < extent[2]; ++j) {
          const i64 hh = lo[1] + i;
          const i64 ww = lo[2] + j;
          const float expected =
              (hh >= 0 && hh < h && ww >= 0 && ww < w)
                  ? src.at(Dims{0, c, hh, ww})
                  : 0.0f;
          ASSERT_EQ(got[static_cast<size_t>(c * points + i * extent[2] + j)],
                    expected)
              << "c=" << c << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, WindowGather, testing::Range(0, 10));

}  // namespace
}  // namespace brickdl
