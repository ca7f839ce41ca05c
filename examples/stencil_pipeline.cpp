// Merged brick execution on a structured-grid HPC stencil (paper §6: the
// optimizations "also apply to the sequences of computations on structured
// grids found in HPC codes").
//
// Five time steps of explicit 2D heat diffusion are expressed as a chain of
// five depthwise 3x3 convolutions carrying the diffusion stencil weights.
// The whole chain is merged with padded bricks — five time steps per brick
// while it is cache-resident, the space-time tiling the paper relates to —
// and checked against the plain step-by-step solver.
//
//   $ ./stencil_pipeline
#include <cstdio>

#include "core/engine.hpp"
#include "core/halo_plan.hpp"

using namespace brickdl;

namespace {

constexpr i64 kGrid = 96;
constexpr int kSteps = 5;
constexpr float kAlpha = 0.2f;  // diffusion coefficient (dt/dx^2 folded in)

/// One explicit Euler step of u_t = alpha * laplacian(u), zero boundary.
void reference_step(const Tensor& in, Tensor* out) {
  for (i64 i = 0; i < kGrid; ++i) {
    for (i64 j = 0; j < kGrid; ++j) {
      const auto at = [&](i64 a, i64 b) -> float {
        if (a < 0 || a >= kGrid || b < 0 || b >= kGrid) return 0.0f;
        return in.at(Dims{0, 0, a, b});
      };
      out->at(Dims{0, 0, i, j}) =
          at(i, j) + kAlpha * (at(i - 1, j) + at(i + 1, j) + at(i, j - 1) +
                               at(i, j + 1) - 4.0f * at(i, j));
    }
  }
}

}  // namespace

int main() {
  // The stencil as a depthwise convolution kernel.
  //   0      a      0
  //   a   1 - 4a    a
  //   0      a      0
  Graph graph("heat2d");
  int u = graph.add_input("u0", Shape{1, 1, kGrid, kGrid});
  for (int step = 0; step < kSteps; ++step) {
    u = graph.add_conv(u, "step" + std::to_string(step + 1), Dims{3, 3}, 1,
                       Dims{1, 1}, Dims{1, 1}, {}, /*groups=*/1);
  }

  WeightStore weights(0);
  Tensor stencil(Dims{1, 1, 3, 3});
  stencil.at(Dims{0, 0, 0, 1}) = kAlpha;
  stencil.at(Dims{0, 0, 1, 0}) = kAlpha;
  stencil.at(Dims{0, 0, 1, 1}) = 1.0f - 4.0f * kAlpha;
  stencil.at(Dims{0, 0, 1, 2}) = kAlpha;
  stencil.at(Dims{0, 0, 2, 1}) = kAlpha;
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kConv) weights.set(node, stencil);
  }

  // Initial condition: a hot square in a cold domain.
  Tensor u0(Shape{1, 1, kGrid, kGrid});
  for (i64 i = 40; i < 56; ++i) {
    for (i64 j = 40; j < 56; ++j) u0.at(Dims{0, 0, i, j}) = 100.0f;
  }

  // Reference: step-by-step solver.
  Tensor ref_a = u0, ref_b(Shape{1, 1, kGrid, kGrid});
  for (int step = 0; step < kSteps; ++step) {
    reference_step(ref_a, &ref_b);
    std::swap(ref_a, ref_b);
  }

  // Merged execution: all five time steps fused over 8x8 bricks.
  Subgraph sg;
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      sg.external_inputs.push_back(node.id);
    } else {
      sg.nodes.push_back(node.id);
    }
  }
  sg.merged = true;

  NumericBackend backend(graph, weights, 4);
  std::unordered_map<int, TensorId> io;
  io[0] = backend.register_tensor(Shape{1, 1, kGrid, kGrid},
                                  Layout::kCanonical, {}, "u0");
  backend.bind(io[0], u0);
  io[sg.terminal()] = backend.register_tensor(
      Shape{1, 1, kGrid, kGrid}, Layout::kBricked, Dims{1, 8, 8}, "u5");

  const Dims brick{1, 8, 8};
  const HaloPlan plan(graph, sg, brick);
  PaddedExecutor exec(graph, sg, plan, backend, io);
  exec.run_checked().throw_if_error();
  const Tensor merged = backend.read(io[sg.terminal()]);

  const double err = max_abs_diff(merged, ref_a);
  std::printf("heat diffusion, %d merged time steps on %lldx%lld grid\n",
              kSteps, static_cast<long long>(kGrid),
              static_cast<long long>(kGrid));
  std::printf("max |merged - reference| = %.2e %s\n", err,
              err < 1e-3 ? "(OK)" : "(MISMATCH!)");

  // Modeled data movement: merged space-time bricks vs per-step sweeps.
  auto model_traffic = [&](bool merge) {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend model(graph, sim);
    std::unordered_map<int, TensorId> mio;
    mio[0] = model.register_tensor(Shape{1, 1, kGrid, kGrid},
                                   Layout::kCanonical, {}, "u0");
    if (merge) {
      mio[sg.terminal()] = model.register_tensor(
          Shape{1, 1, kGrid, kGrid}, Layout::kBricked, brick, "u5");
      PaddedExecutor pe(graph, sg, plan, model, mio);
      pe.run_checked().throw_if_error();
    } else {
      // Per-step sweeps materializing every intermediate grid.
      TensorId prev = mio[0];
      for (int n : sg.nodes) {
        const TensorId out = model.register_tensor(
            Shape{1, 1, kGrid, kGrid}, Layout::kCanonical, {}, "step");
        run_node_tiled(graph, graph.node(n), model, {{graph.node(n).inputs[0],
                                                      prev}},
                       out, 16);
        prev = out;
      }
    }
    sim.flush();
    return sim.counters();
  };

  const TxnCounters per_step = model_traffic(false);
  const TxnCounters merged_txns = model_traffic(true);
  std::printf("\nmodeled DRAM transactions: per-step sweeps %lld, merged "
              "space-time bricks %lld (%.0f%% less)\n",
              static_cast<long long>(per_step.dram()),
              static_cast<long long>(merged_txns.dram()),
              100.0 * (1.0 - static_cast<double>(merged_txns.dram()) /
                                 static_cast<double>(per_step.dram())));
  return err < 1e-3 ? 0 : 1;
}
