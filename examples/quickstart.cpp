// Quickstart: define a small CNN, let BrickDL partition it, and run
// inference numerically with merged brick execution — verifying against the
// naive reference executor.
//
//   $ ./quickstart
#include <cstdio>

#include "core/engine.hpp"
#include "models/models.hpp"

using namespace brickdl;

int main() {
  // 1. Describe the network as a dataflow graph.
  Graph graph("quickstart");
  int x = graph.add_input("image", Shape{1, 3, 32, 32});
  x = graph.add_conv(x, "conv1", Dims{3, 3}, 16, Dims{1, 1}, Dims{1, 1},
                     /*dilation=*/{}, /*groups=*/1, /*fused_relu=*/true);
  x = graph.add_conv(x, "conv2", Dims{3, 3}, 16, Dims{1, 1}, Dims{1, 1}, {}, 1,
                     true);
  x = graph.add_pool(x, "pool", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  x = graph.add_conv(x, "conv3", Dims{3, 3}, 32, Dims{1, 1}, Dims{1, 1}, {}, 1,
                     true);
  x = graph.add_global_avg_pool(x, "gap");
  x = graph.add_dense(x, "fc", 10);
  graph.add_softmax(x, "prob");

  // 2. Partition: BrickDL groups mergeable layers into subgraphs and picks a
  //    brick size and merged-execution strategy per subgraph.
  Engine engine(graph, {});
  std::printf("Partition of '%s':\n%s\n", graph.name().c_str(),
              engine.partition().describe(graph).c_str());

  // 3. Run inference on the numeric backend.
  Tensor input(Shape{1, 3, 32, 32});
  Rng rng(2024);
  input.fill_random(rng);

  WeightStore weights(7);
  NumericBackend backend(graph, weights, /*workers=*/4);
  const EngineResult result = engine.run_checked(backend, &input).take();
  const Tensor probabilities = backend.read(result.output);

  std::printf("Class probabilities:");
  for (i64 i = 0; i < probabilities.elements(); ++i) {
    std::printf(" %.4f", probabilities.flat(i));
  }
  std::printf("\n");

  // 4. Cross-check against the naive per-layer reference executor.
  const auto reference = run_graph_reference(graph, input, weights);
  const double err = max_abs_diff(probabilities, reference.back());
  std::printf("Max abs difference vs. reference executor: %.2e %s\n", err,
              err < 1e-4 ? "(OK)" : "(MISMATCH!)");
  return err < 1e-4 ? 0 : 1;
}
