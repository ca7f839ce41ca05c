#include "ops/dispatch.hpp"

#include <algorithm>
#include <cmath>

#include "util/odometer.hpp"
#include "util/rng.hpp"

namespace brickdl {

i64 region_out_channels(const Node& node, std::span<const RegionInput> inputs) {
  switch (node.kind) {
    case OpKind::kConv:
      return node.attrs.out_channels;
    case OpKind::kConcat: {
      i64 c = 0;
      for (const auto& in : inputs) c += in.channels;
      return c;
    }
    default:
      BDL_CHECK(!inputs.empty());
      return inputs[0].channels;
  }
}

void compute_region(const Node& node, std::span<const RegionInput> inputs,
                    std::span<const float> weights, const Dims& out_lo,
                    const Dims& out_extent, std::span<float> out) {
  switch (node.kind) {
    case OpKind::kConv:
      BDL_CHECK(inputs.size() == 1);
      conv_region(node, inputs[0], weights, out_lo, out_extent, out);
      return;
    case OpKind::kPool:
      BDL_CHECK(inputs.size() == 1);
      pool_region(node, inputs[0], out_lo, out_extent, out);
      return;
    case OpKind::kRelu:
      BDL_CHECK(inputs.size() == 1 && inputs[0].lo == out_lo &&
                inputs[0].extent == out_extent);
      relu_region(inputs[0], out);
      return;
    case OpKind::kSigmoid:
      BDL_CHECK(inputs.size() == 1 && inputs[0].lo == out_lo &&
                inputs[0].extent == out_extent);
      sigmoid_region(inputs[0], out);
      return;
    case OpKind::kSoftmax:
      BDL_CHECK(inputs.size() == 1 && inputs[0].lo == out_lo &&
                inputs[0].extent == out_extent);
      softmax_region(inputs[0], out);
      return;
    case OpKind::kBatchNorm:
      BDL_CHECK(inputs.size() == 1 && inputs[0].lo == out_lo &&
                inputs[0].extent == out_extent);
      batchnorm_region(inputs[0], weights, out);
      return;
    case OpKind::kAdd:
      BDL_CHECK(inputs.size() == 2);
      add_region(inputs[0], inputs[1], out);
      return;
    case OpKind::kConcat:
      concat_region(inputs, out);
      return;
    case OpKind::kInput:
    case OpKind::kGlobalAvgPool:
    case OpKind::kDense:
      BDL_CHECK_MSG(false, "op " << op_kind_name(node.kind)
                                 << " is not a region kernel");
  }
}

void mask_region_outside(const Dims& lo, const Dims& extent, i64 channels,
                         const Dims& bounds, std::span<float> data) {
  BDL_CHECK(lo.rank() == extent.rank() && lo.rank() == bounds.rank());
  const i64 points = extent.product();
  for_each_index(extent, [&](const Dims& rel) {
    bool inside = true;
    for (int d = 0; d < rel.rank(); ++d) {
      const i64 abs = rel[d] + lo[d];
      if (abs < 0 || abs >= bounds[d]) {
        inside = false;
        break;
      }
    }
    if (inside) return;
    const i64 offset = extent.linear(rel);
    for (i64 c = 0; c < channels; ++c) {
      data[static_cast<size_t>(c * points + offset)] = 0.0f;
    }
  });
}

namespace {

/// `node`'s weights in WeightStore order (conv weights as ConvWeightLayout
/// says, other ops' as they are), where canonical element i is value(i).
/// value is called in canonical order, and no canonical copy is made.
template <typename Fn>
Tensor in_storage_order(const Node& node, Fn&& value) {
  Tensor stored(node.weight_dims);
  if (node.kind != OpKind::kConv) {
    for (i64 i = 0; i < stored.elements(); ++i) stored.flat(i) = value(i);
    return stored;
  }
  const ConvWeightLayout layout(node);
  i64 i = 0;
  for (i64 m = 0; m < node.attrs.out_channels; ++m) {
    for (i64 c = 0; c < layout.c_group; ++c) {
      for (i64 t = 0; t < layout.taps; ++t) {
        stored.flat(layout.index(m, c, t)) = value(i++);
      }
    }
  }
  return stored;
}

}  // namespace

std::span<const float> WeightStore::weights(const Node& node) {
  if (node.weight_elements() == 0) return {};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(node.name);
  if (it == store_.end()) {
    const u64 name_hash = std::hash<std::string>{}(node.name);
    Rng rng(seed_ ^ (name_hash * 0x2545f4914f6cdd1dULL));
    // Fan-in scaling keeps deep-chain activations bounded. Batch norm draws
    // interleaved per-channel (scale, shift).
    const i64 fan_in = node.weight_elements() / node.weight_dims[0];
    const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
    const bool batchnorm = node.kind == OpKind::kBatchNorm;
    it = store_
             .emplace(node.name,
                      std::make_unique<Tensor>(in_storage_order(
                          node,
                          [&](i64 i) {
                            if (!batchnorm) return rng.next_float(-scale, scale);
                            return i % 2 == 0 ? rng.next_float(0.6f, 1.4f)
                                              : rng.next_float(-0.2f, 0.2f);
                          })))
             .first;
  }
  return it->second->span();
}

Tensor WeightStore::canonical(const Node& node) {
  const std::span<const float> stored = weights(node);
  if (stored.empty()) return Tensor{};
  Tensor out(node.weight_dims);
  if (node.kind != OpKind::kConv) {
    std::copy(stored.begin(), stored.end(), out.span().begin());
    return out;
  }
  const ConvWeightLayout layout(node);
  i64 i = 0;
  for (i64 m = 0; m < node.attrs.out_channels; ++m) {
    for (i64 c = 0; c < layout.c_group; ++c) {
      for (i64 t = 0; t < layout.taps; ++t) {
        out.flat(i++) = stored[static_cast<size_t>(layout.index(m, c, t))];
      }
    }
  }
  return out;
}

void WeightStore::set(const Node& node, const Tensor& values) {
  BDL_CHECK_MSG(node.weight_elements() == values.elements(),
                "weight size mismatch for " << node.name << ": expected "
                                            << node.weight_elements() << ", got "
                                            << values.elements());
  auto stored = std::make_unique<Tensor>(
      in_storage_order(node, [&](i64 i) { return values.flat(i); }));
  std::lock_guard<std::mutex> lock(mu_);
  store_[node.name] = std::move(stored);
}

std::vector<float> canonical_to_region(const Tensor& t) {
  const Shape shape(t.dims());
  const i64 batch = shape.batch();
  const i64 channels = shape.channels();
  const i64 points = shape.spatial_dims().product();
  std::vector<float> out(static_cast<size_t>(shape.elements()));
  for (i64 n = 0; n < batch; ++n) {
    for (i64 c = 0; c < channels; ++c) {
      const float* src = t.data() + (n * channels + c) * points;
      float* dst = out.data() + (c * batch + n) * points;
      for (i64 p = 0; p < points; ++p) dst[p] = src[p];
    }
  }
  return out;
}

Tensor region_to_canonical(std::span<const float> data, const Shape& shape) {
  const i64 batch = shape.batch();
  const i64 channels = shape.channels();
  const i64 points = shape.spatial_dims().product();
  BDL_CHECK(static_cast<i64>(data.size()) >= shape.elements());
  Tensor out(shape);
  for (i64 n = 0; n < batch; ++n) {
    for (i64 c = 0; c < channels; ++c) {
      const float* src = data.data() + (c * batch + n) * points;
      float* dst = out.data() + (n * channels + c) * points;
      for (i64 p = 0; p < points; ++p) dst[p] = src[p];
    }
  }
  return out;
}

Tensor execute_node_full(const Graph& graph, const Node& node,
                         const std::vector<const Tensor*>& inputs,
                         WeightStore& weights) {
  switch (node.kind) {
    case OpKind::kInput:
      BDL_CHECK_MSG(false, "input nodes are not executed");
      break;
    case OpKind::kDense:
      BDL_CHECK(inputs.size() == 1);
      return dense_forward(node, *inputs[0], weights.weights(node));
    case OpKind::kGlobalAvgPool:
      BDL_CHECK(inputs.size() == 1);
      return global_avg_pool_forward(node, *inputs[0]);
    default:
      break;
  }

  // Region ops: run one region spanning the whole output.
  const std::vector<Shape> in_shapes = graph.input_shapes(node);
  std::vector<std::vector<float>> region_inputs_data;
  std::vector<RegionInput> region_inputs;
  region_inputs_data.reserve(inputs.size());
  region_inputs.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    region_inputs_data.push_back(canonical_to_region(*inputs[i]));
    RegionInput ri;
    ri.data = region_inputs_data.back();
    ri.lo = Dims::filled(in_shapes[i].blocked_dims().rank(), 0);
    ri.extent = in_shapes[i].blocked_dims();
    ri.channels = in_shapes[i].channels();
    region_inputs.push_back(ri);
  }

  const Dims out_blocked = node.out_shape.blocked_dims();
  const Dims out_lo = Dims::filled(out_blocked.rank(), 0);
  std::vector<float> out_region(
      static_cast<size_t>(node.out_shape.elements()));
  compute_region(node, region_inputs, weights.weights(node), out_lo,
                 out_blocked, out_region);
  return region_to_canonical(out_region, node.out_shape);
}

std::vector<Tensor> run_graph_reference(const Graph& graph, const Tensor& input,
                                        WeightStore& weights) {
  std::vector<Tensor> outputs;
  outputs.reserve(static_cast<size_t>(graph.num_nodes()));
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      BDL_CHECK_MSG(node.out_shape.dims == input.dims(),
                    "graph input shape " << node.out_shape.str()
                                         << " != tensor " << input.dims().str());
      Tensor copy(node.out_shape);
      for (i64 i = 0; i < input.elements(); ++i) copy.flat(i) = input.flat(i);
      outputs.push_back(std::move(copy));
      continue;
    }
    std::vector<const Tensor*> ins;
    ins.reserve(node.inputs.size());
    for (int id : node.inputs) ins.push_back(&outputs[static_cast<size_t>(id)]);
    outputs.push_back(execute_node_full(graph, node, ins, weights));
  }
  return outputs;
}

}  // namespace brickdl
