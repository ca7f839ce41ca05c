#include <algorithm>
#include <limits>

#include "ops/region.hpp"
#include "ops/region_interior.hpp"
#include "util/odometer.hpp"

namespace brickdl {
namespace {

inline float window_at(const RegionInput& in, i64 channel, const Dims& abs) {
  i64 offset = 0;
  for (int d = 0; d < abs.rank(); ++d) {
    const i64 rel = abs[d] - in.lo[d];
    if (rel < 0 || rel >= in.extent[d]) return 0.0f;
    offset = offset * in.extent[d] + rel;
  }
  return in.data[static_cast<size_t>(channel * in.extent.product() + offset)];
}

/// Generic (per-tap clamping) pooling over [box_lo, box_lo+box_extent),
/// writing at offsets relative to the full region [out_lo, out_lo+out_extent).
void pool_box(const Node& node, const RegionInput& input, const Dims& box_lo,
              const Dims& box_extent, const Dims& out_lo,
              const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int spatial_rank = a.window.rank();
  const i64 channels = input.channels;
  const i64 out_points = out_extent.product();
  const double inv_volume = 1.0 / static_cast<double>(a.window.product());

  for_each_index(box_extent, [&](const Dims& rel) {
    Dims abs = rel;
    Dims out_rel = rel;
    for (int d = 0; d <= spatial_rank; ++d) {
      abs[d] += box_lo[d];
      out_rel[d] = abs[d] - out_lo[d];
    }
    const i64 point = out_extent.linear(out_rel);
    for (i64 c = 0; c < channels; ++c) {
      double acc = a.pool_kind == PoolKind::kMax
                       ? -std::numeric_limits<double>::infinity()
                       : 0.0;
      for_each_index(a.window, [&](const Dims& tap) {
        Dims in_abs = abs;
        for (int d = 0; d < spatial_rank; ++d) {
          in_abs[d + 1] = abs[d + 1] * a.stride[d] - a.padding[d] + tap[d];
        }
        // Out-of-bounds reads as zero in every executor path (see region.hpp).
        const double v = window_at(input, c, in_abs);
        if (a.pool_kind == PoolKind::kMax) {
          acc = std::max(acc, v);
        } else {
          acc += v;
        }
      });
      if (a.pool_kind == PoolKind::kAvg) acc *= inv_volume;
      out[static_cast<size_t>(c * out_points + point)] = static_cast<float>(acc);
    }
  });
}

/// Interior fast path (see conv.cpp for the scheme): hand-flattened loops,
/// precomputed strides and tap offsets, no per-tap validity checks. Tap
/// visit order matches pool_box, so max/avg results are bit-identical.
void pool_interior(const Node& node, const RegionInput& input,
                   const detail::StencilDim* dims, const i64* ilo,
                   const i64* ihi, const Dims& out_lo, const Dims& out_extent,
                   std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int rank = out_lo.rank();
  const i64 channels = input.channels;
  const i64 taps = a.window.product();
  const i64 in_points = input.extent.product();
  const i64 out_points = out_extent.product();
  const bool is_max = a.pool_kind == PoolKind::kMax;
  const double inv_volume = 1.0 / static_cast<double>(taps);

  i64 in_stride[Dims::kMaxRank];
  i64 out_stride[Dims::kMaxRank];
  row_major_strides(input.extent, in_stride);
  row_major_strides(out_extent, out_stride);
  i64 tap_off[detail::kMaxInteriorTaps];
  detail::tap_offsets(a.window, dims, in_stride, tap_off);

  const int last = rank - 1;
  for (i64 c = 0; c < channels; ++c) {
    const float* in_c = input.data.data() + c * in_points;
    float* out_c = out.data() + c * out_points;
    i64 idx[Dims::kMaxRank];
    for (int d = 0; d < last; ++d) idx[d] = ilo[d];
    while (true) {
      i64 in_base = 0;
      i64 out_base = 0;
      for (int d = 0; d < last; ++d) {
        in_base +=
            (idx[d] * dims[d].scale + dims[d].base - input.lo[d]) *
            in_stride[d];
        out_base += (idx[d] - out_lo[d]) * out_stride[d];
      }
      for (i64 x = ilo[last]; x < ihi[last]; ++x) {
        const i64 in_x =
            in_base + x * dims[last].scale + dims[last].base - input.lo[last];
        double acc = is_max ? -std::numeric_limits<double>::infinity() : 0.0;
        for (i64 t = 0; t < taps; ++t) {
          const double v =
              in_c[in_x + tap_off[t]];
          if (is_max) {
            acc = std::max(acc, v);
          } else {
            acc += v;
          }
        }
        if (!is_max) acc *= inv_volume;
        out_c[out_base + (x - out_lo[last])] = static_cast<float>(acc);
      }
      int d = last - 1;
      for (; d >= 0; --d) {
        if (++idx[d] < ihi[d]) break;
        idx[d] = ilo[d];
      }
      if (d < 0) break;
    }
  }
}

}  // namespace

void pool_region_generic(const Node& node, const RegionInput& input,
                         const Dims& out_lo, const Dims& out_extent,
                         std::span<float> out) {
  const OpAttrs& a = node.attrs;
  BDL_CHECK(out_lo.rank() == a.window.rank() + 1);
  BDL_CHECK(static_cast<i64>(out.size()) >=
            input.channels * out_extent.product());
  pool_box(node, input, out_lo, out_extent, out_lo, out_extent, out);
}

void pool_region(const Node& node, const RegionInput& input, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int spatial_rank = a.window.rank();
  const int rank = spatial_rank + 1;
  BDL_CHECK(out_lo.rank() == rank);
  BDL_CHECK(static_cast<i64>(out.size()) >=
            input.channels * out_extent.product());

  detail::StencilDim dims[Dims::kMaxRank];
  dims[0] = detail::StencilDim{};  // batch: identity, no taps
  for (int d = 0; d < spatial_rank; ++d) {
    dims[d + 1] = {a.stride[d], -a.padding[d], 1, a.window[d]};
  }
  i64 ilo[Dims::kMaxRank] = {};
  i64 ihi[Dims::kMaxRank] = {};
  if (a.window.product() > detail::kMaxInteriorTaps ||
      !detail::interior_box(rank, dims, input.lo, input.extent, out_lo,
                            out_extent, ilo, ihi)) {
    pool_box(node, input, out_lo, out_extent, out_lo, out_extent, out);
    return;
  }
  pool_interior(node, input, dims, ilo, ihi, out_lo, out_extent, out);
  detail::for_each_boundary_slab(
      rank, out_lo, out_extent, ilo, ihi,
      [&](const Dims& slab_lo, const Dims& slab_extent) {
        pool_box(node, input, slab_lo, slab_extent, out_lo, out_extent, out);
      });
}

}  // namespace brickdl
