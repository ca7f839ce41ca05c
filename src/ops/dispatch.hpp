// Full-tensor reference execution and weight management.
//
// The reference executor runs every node over its whole output window using
// the same region kernels the merged executors invoke per brick, making it
// the numerical ground truth all other execution paths are tested against.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "ops/region.hpp"
#include "tensor/tensor.hpp"

namespace brickdl {

/// Deterministic per-node weight storage. Weights are created lazily, seeded
/// by (store seed, node *name*), drawn in canonical order, and scaled by
/// fan-in so activations stay bounded through deep chains. Name-keyed seeding means graph rewrites that
/// preserve node names (e.g. fuse_conv_pointwise) keep the same weights, so
/// rewritten graphs are numerically comparable to their originals.
class WeightStore {
 public:
  explicit WeightStore(u64 seed = 42) : seed_(seed) {}

  /// Flattened weights of `node` in storage order (empty span if the op has
  /// none): conv weights as ConvWeightLayout says, every other op's in
  /// Node::weight_dims order. The store keeps this one copy only; the region
  /// kernels read it directly.
  /// Thread-safe: parallel executors first-touch weights concurrently.
  std::span<const float> weights(const Node& node);

  /// A copy of `node`'s weights in canonical Node::weight_dims order
  /// ([M, C/groups, kernel...] for a conv), unpacked from storage. The
  /// eager oracle reads weights through this, so a storage-layout bug shows
  /// up as an oracle mismatch.
  Tensor canonical(const Node& node);

  /// Install explicit weights for the node named `name`, given in canonical
  /// order (sizes must match the node's weight_dims). Replaces any lazily
  /// generated values — this is how real (non-random) parameters enter the
  /// library. Spans returned earlier for the node are invalidated.
  void set(const Node& node, const Tensor& values);

 private:
  u64 seed_;
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Tensor>> store_;
};

/// Convert a canonical activation [N, C, spatial...] into region layout
/// [C, N, spatial...] and back.
std::vector<float> canonical_to_region(const Tensor& t);
Tensor region_to_canonical(std::span<const float> data, const Shape& shape);

/// Global (non-region) kernels.
Tensor dense_forward(const Node& node, const Tensor& input,
                     std::span<const float> weights);
Tensor global_avg_pool_forward(const Node& node, const Tensor& input);

/// Execute one node over its full output given full canonical inputs.
Tensor execute_node_full(const Graph& graph, const Node& node,
                         const std::vector<const Tensor*>& inputs,
                         WeightStore& weights);

/// Run the whole graph from one input tensor; returns every node's output
/// (indexed by node id). The single kInput node receives `input`.
std::vector<Tensor> run_graph_reference(const Graph& graph, const Tensor& input,
                                        WeightStore& weights);

}  // namespace brickdl
