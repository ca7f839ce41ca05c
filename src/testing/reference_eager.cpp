#include "testing/reference_eager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/odometer.hpp"

namespace brickdl {
namespace {

/// Value at (batch n, channel c, spatial sp) in canonical layout; zero for
/// spatial coordinates outside the tensor (zero-padding semantics, matching
/// region.hpp's out-of-window reads).
inline float sample(const Tensor& t, i64 n, i64 c, const Dims& sp) {
  const Dims& d = t.dims();
  i64 offset = n * d[1] + c;
  for (int i = 0; i < sp.rank(); ++i) {
    if (sp[i] < 0 || sp[i] >= d[2 + i]) return 0.0f;
    offset = offset * d[2 + i] + sp[i];
  }
  return t.flat(offset);
}

inline i64 canonical_offset(const Shape& shape, i64 n, i64 c, const Dims& sp) {
  i64 offset = n * shape.channels() + c;
  for (int i = 0; i < sp.rank(); ++i) offset = offset * shape.spatial(i) + sp[i];
  return offset;
}

Tensor conv_eager(const Node& node, const Tensor& in,
                  std::span<const float> weights) {
  const OpAttrs& a = node.attrs;
  const int spatial_rank = a.kernel.rank();
  const i64 batch = Shape(in.dims()).batch();
  const i64 c_in = Shape(in.dims()).channels();
  const i64 m_total = a.out_channels;
  const i64 c_group = c_in / a.groups;
  const i64 m_group = m_total / a.groups;
  const i64 taps = a.kernel.product();

  Tensor out(node.out_shape);
  const Dims out_spatial = node.out_shape.spatial_dims();
  for (i64 n = 0; n < batch; ++n) {
    for_each_index(out_spatial, [&](const Dims& os) {
      for (i64 m = 0; m < m_total; ++m) {
        const i64 g = m / m_group;
        const float* w_m = weights.data() + m * c_group * taps;
        double acc = 0.0;
        for_each_index(a.kernel, [&](const Dims& tap) {
          Dims is = os;
          bool valid = true;
          for (int d = 0; d < spatial_rank && valid; ++d) {
            if (!a.transposed) {
              is[d] = os[d] * a.stride[d] - a.padding[d] + a.dilation[d] * tap[d];
            } else {
              // Transposed: output o accumulates in(i)·w(t) where
              // o = i·s − p + d·t, so only stride-divisible offsets hit.
              const i64 numer = os[d] + a.padding[d] - a.dilation[d] * tap[d];
              if (numer % a.stride[d] != 0) {
                valid = false;
              } else {
                is[d] = numer / a.stride[d];
              }
            }
          }
          if (!valid) return;
          const i64 t = a.kernel.linear(tap);
          for (i64 cg = 0; cg < c_group; ++cg) {
            acc += static_cast<double>(sample(in, n, g * c_group + cg, is)) *
                   w_m[cg * taps + t];
          }
        });
        float v = static_cast<float>(acc);
        if (a.fused_relu && v < 0.0f) v = 0.0f;
        out.flat(canonical_offset(node.out_shape, n, m, os)) = v;
      }
    });
  }
  return out;
}

Tensor pool_eager(const Node& node, const Tensor& in) {
  const OpAttrs& a = node.attrs;
  const int spatial_rank = a.window.rank();
  const i64 batch = Shape(in.dims()).batch();
  const i64 channels = Shape(in.dims()).channels();
  const double inv_volume = 1.0 / static_cast<double>(a.window.product());

  Tensor out(node.out_shape);
  const Dims out_spatial = node.out_shape.spatial_dims();
  for (i64 n = 0; n < batch; ++n) {
    for_each_index(out_spatial, [&](const Dims& os) {
      for (i64 c = 0; c < channels; ++c) {
        double acc = a.pool_kind == PoolKind::kMax
                         ? -std::numeric_limits<double>::infinity()
                         : 0.0;
        for_each_index(a.window, [&](const Dims& tap) {
          Dims is = os;
          for (int d = 0; d < spatial_rank; ++d) {
            is[d] = os[d] * a.stride[d] - a.padding[d] + tap[d];
          }
          // Out-of-bounds reads as zero in every executor path (region.hpp).
          const double v = sample(in, n, c, is);
          if (a.pool_kind == PoolKind::kMax) {
            acc = std::max(acc, v);
          } else {
            acc += v;
          }
        });
        if (a.pool_kind == PoolKind::kAvg) acc *= inv_volume;
        out.flat(canonical_offset(node.out_shape, n, c, os)) =
            static_cast<float>(acc);
      }
    });
  }
  return out;
}

Tensor softmax_eager(const Node& node, const Tensor& in) {
  const i64 batch = Shape(in.dims()).batch();
  const i64 channels = Shape(in.dims()).channels();
  const i64 points = Shape(in.dims()).spatial_dims().product();

  Tensor out(node.out_shape);
  auto x = [&](i64 n, i64 c, i64 p) {
    return in.flat((n * channels + c) * points + p);
  };
  for (i64 n = 0; n < batch; ++n) {
    for (i64 p = 0; p < points; ++p) {
      float max_v = -std::numeric_limits<float>::infinity();
      for (i64 c = 0; c < channels; ++c) max_v = std::max(max_v, x(n, c, p));
      double sum = 0.0;
      for (i64 c = 0; c < channels; ++c) {
        sum += std::exp(static_cast<double>(x(n, c, p)) - max_v);
      }
      const double inv = 1.0 / sum;
      for (i64 c = 0; c < channels; ++c) {
        out.flat((n * channels + c) * points + p) = static_cast<float>(
            std::exp(static_cast<double>(x(n, c, p)) - max_v) * inv);
      }
    }
  }
  return out;
}

Tensor batchnorm_eager(const Node& node, const Tensor& in,
                       std::span<const float> weights) {
  const i64 batch = Shape(in.dims()).batch();
  const i64 channels = Shape(in.dims()).channels();
  const i64 points = Shape(in.dims()).spatial_dims().product();

  Tensor out(node.out_shape);
  for (i64 n = 0; n < batch; ++n) {
    for (i64 c = 0; c < channels; ++c) {
      const float scale = weights[static_cast<size_t>(c * 2)];
      const float shift = weights[static_cast<size_t>(c * 2 + 1)];
      for (i64 p = 0; p < points; ++p) {
        const i64 i = (n * channels + c) * points + p;
        out.flat(i) = in.flat(i) * scale + shift;
      }
    }
  }
  return out;
}

Tensor dense_eager(const Node& node, const Tensor& in,
                   std::span<const float> weights) {
  const i64 batch = Shape(in.dims()).batch();
  const i64 in_features = in.elements() / batch;
  const i64 out_features = node.attrs.out_features;

  Tensor out(Dims{batch, out_features});
  for (i64 n = 0; n < batch; ++n) {
    for (i64 m = 0; m < out_features; ++m) {
      const float* w = weights.data() + m * in_features;
      double acc = 0.0;
      for (i64 k = 0; k < in_features; ++k) {
        acc += static_cast<double>(in.flat(n * in_features + k)) * w[k];
      }
      out.flat(n * out_features + m) = static_cast<float>(acc);
    }
  }
  return out;
}

Tensor global_avg_pool_eager(const Node& node, const Tensor& in) {
  const i64 batch = Shape(in.dims()).batch();
  const i64 channels = Shape(in.dims()).channels();
  const i64 points = Shape(in.dims()).spatial_dims().product();

  Tensor out(node.out_shape);
  const double inv = 1.0 / static_cast<double>(points);
  for (i64 n = 0; n < batch; ++n) {
    for (i64 c = 0; c < channels; ++c) {
      double acc = 0.0;
      for (i64 p = 0; p < points; ++p) {
        acc += in.flat((n * channels + c) * points + p);
      }
      out.flat(n * channels + c) = static_cast<float>(acc * inv);
    }
  }
  return out;
}

}  // namespace

Tensor eager_node(const Graph& /*graph*/, const Node& node,
                  const std::vector<const Tensor*>& inputs,
                  WeightStore& weights) {
  switch (node.kind) {
    case OpKind::kInput:
      BDL_CHECK_MSG(false, "input nodes are not executed");
      break;
    case OpKind::kConv:
      BDL_CHECK(inputs.size() == 1);
      return conv_eager(node, *inputs[0], weights.canonical(node).span());
    case OpKind::kPool:
      BDL_CHECK(inputs.size() == 1);
      return pool_eager(node, *inputs[0]);
    case OpKind::kRelu: {
      BDL_CHECK(inputs.size() == 1);
      Tensor out(node.out_shape);
      for (i64 i = 0; i < out.elements(); ++i) {
        const float v = inputs[0]->flat(i);
        out.flat(i) = v > 0.0f ? v : 0.0f;
      }
      return out;
    }
    case OpKind::kSigmoid: {
      BDL_CHECK(inputs.size() == 1);
      Tensor out(node.out_shape);
      for (i64 i = 0; i < out.elements(); ++i) {
        const float v = inputs[0]->flat(i);
        out.flat(i) = 1.0f / (1.0f + std::exp(-v));
      }
      return out;
    }
    case OpKind::kSoftmax:
      BDL_CHECK(inputs.size() == 1);
      return softmax_eager(node, *inputs[0]);
    case OpKind::kBatchNorm:
      BDL_CHECK(inputs.size() == 1);
      return batchnorm_eager(node, *inputs[0],
                             weights.canonical(node).span());
    case OpKind::kAdd: {
      BDL_CHECK(inputs.size() == 2);
      Tensor out(node.out_shape);
      for (i64 i = 0; i < out.elements(); ++i) {
        out.flat(i) = inputs[0]->flat(i) + inputs[1]->flat(i);
      }
      return out;
    }
    case OpKind::kConcat: {
      // Channel concatenation in canonical layout: per batch entry, copy
      // each input's [channels, spatial...] block in argument order.
      Tensor out(node.out_shape);
      const i64 batch = node.out_shape.batch();
      const i64 points = node.out_shape.spatial_dims().product();
      const i64 out_channels = node.out_shape.channels();
      for (i64 n = 0; n < batch; ++n) {
        i64 c_base = 0;
        for (const Tensor* in : inputs) {
          const i64 c_in = Shape(in->dims()).channels();
          for (i64 c = 0; c < c_in; ++c) {
            for (i64 p = 0; p < points; ++p) {
              out.flat((n * out_channels + c_base + c) * points + p) =
                  in->flat((n * c_in + c) * points + p);
            }
          }
          c_base += c_in;
        }
      }
      return out;
    }
    case OpKind::kGlobalAvgPool:
      BDL_CHECK(inputs.size() == 1);
      return global_avg_pool_eager(node, *inputs[0]);
    case OpKind::kDense:
      BDL_CHECK(inputs.size() == 1);
      return dense_eager(node, *inputs[0], weights.canonical(node).span());
  }
  BDL_CHECK_MSG(false, "unhandled op kind");
  return Tensor{};
}

std::vector<Tensor> run_graph_eager(const Graph& graph, const Tensor& input,
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
    outputs.push_back(eager_node(graph, node, ins, weights));
  }
  return outputs;
}

}  // namespace brickdl
