// Trivially-correct eager oracle for differential testing.
//
// Every operator is implemented a second time here as straight-line loops
// over canonical NCHW/NCDHW tensors, with no windows, regions, bricks, or
// layout conversions — nothing shared with the ops/ region kernels except
// the weight store, read in canonical order (WeightStore::canonical), and
// the iteration utility. The merged executors, the
// baselines, and the region kernels themselves are all tested against this
// interpreter (tests/test_differential.cpp, tools/brickdl_fuzz.cpp).
//
// The arithmetic mirrors the region kernels' documented accumulation order
// (double accumulators, row-major kernel taps, channels innermost) so that
// agreement is exact: merged execution is semantics-preserving down to the
// last bit, which is what the differential harness asserts.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "ops/dispatch.hpp"
#include "tensor/tensor.hpp"

namespace brickdl {

/// Execute one node eagerly over full canonical inputs.
Tensor eager_node(const Graph& graph, const Node& node,
                  const std::vector<const Tensor*>& inputs,
                  WeightStore& weights);

/// Run the whole graph eagerly from one input tensor; returns every node's
/// output indexed by node id. The single kInput node receives `input`.
std::vector<Tensor> run_graph_eager(const Graph& graph, const Tensor& input,
                                    WeightStore& weights);

}  // namespace brickdl
