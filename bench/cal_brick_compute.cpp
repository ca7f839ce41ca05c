// §4.3.2 calibration microbenchmark: the compute time of one brick.
//
// The paper times repeated per-brick convolution calls (8³ brick, 3³ filter,
// 64→64 channels — 113.2 MFLOP per call) and inverts the aggregate rate to
// get T_brick = 6.72 µs on the A100. The simulator's cost model reproduces
// that constant exactly (t_launch + flops/rate). This harness verifies the
// model arithmetic and measures the same kernel on the host CPU via the real
// minidnn region kernel, for reference.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "graph/graph.hpp"
#include "ops/dispatch.hpp"
#include "sim/cost.hpp"
#include "util/rng.hpp"

namespace {

using namespace brickdl;

struct BrickFixture {
  Graph graph;
  int conv = -1;
  std::vector<float> input;   // [64, 1, 10, 10, 10] region window
  std::vector<float> weights;
  std::vector<float> output;  // [64, 1, 8, 8, 8]

  BrickFixture() {
    const int x = graph.add_input("x", Shape{1, 64, 10, 10, 10});
    conv = graph.add_conv(x, "conv", Dims{3, 3, 3}, 64, Dims{1, 1, 1},
                          Dims{0, 0, 0});
    Rng rng(7);
    input.resize(64 * 1000);
    for (auto& v : input) v = rng.next_float(-1.0f, 1.0f);
    weights.resize(64 * 64 * 27);
    for (auto& v : weights) v = rng.next_float(-0.1f, 0.1f);
    output.resize(64 * 512);
  }
};

void BM_BrickConv3D(benchmark::State& state) {
  static BrickFixture fixture;
  RegionInput ri;
  ri.data = fixture.input;
  ri.lo = Dims{0, 0, 0, 0};
  ri.extent = Dims{1, 10, 10, 10};
  ri.channels = 64;
  const Node& node = fixture.graph.node(fixture.conv);
  // The unpadded 3^3 conv computes output [0, 8)^3 from exactly the 10^3
  // input window: the whole brick is interior.
  for (auto _ : state) {
    compute_region(node, std::span<const RegionInput>(&ri, 1),
                   fixture.weights, Dims{0, 0, 0, 0}, Dims{1, 8, 8, 8},
                   fixture.output);
    benchmark::DoNotOptimize(fixture.output.data());
  }
  const double flops_per_call = 512.0 * 64 * 64 * 27 * 2;
  state.SetItemsProcessed(state.iterations());
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_call * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_BrickConv3D)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  std::printf("== C2 (SS 4.3.2): per-brick compute-time calibration ==\n");
  const MachineParams a100 = MachineParams::a100();
  const CostModel cost(a100);
  const double flops = 512.0 * 64 * 64 * 27 * 2;  // 8^3 brick, 3^3 filter
  std::printf(
      "Reference brick: 8x8x8 output, 3x3x3 filter, 64->64 channels = %.1f "
      "MFLOP\n"
      "Model T_brick = t_launch + flops/rate = %.2f us (paper: 6.72 us)\n"
      "  t_launch = %.0f ns, FP32 rate = %.2f TFLOP/s\n\n",
      flops / 1e6, cost.t_brick(flops) * 1e6, a100.t_launch * 1e9,
      a100.flops_per_second / 1e12);
  std::printf("Host CPU measurement of the same brick kernel (minidnn):\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
