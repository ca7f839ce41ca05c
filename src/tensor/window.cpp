#include "tensor/window.hpp"

#include "util/odometer.hpp"

namespace brickdl {
namespace {

/// Element strides of a canonical activation [N, C, spatial...] over its
/// blocked dims [N, spatial...], plus the channel stride.
struct CanonicalStrides {
  i64 blocked[Dims::kMaxRank];
  i64 channel;
};

CanonicalStrides canonical_strides(const Shape& shape) {
  CanonicalStrides s;
  row_major_strides(shape.blocked_dims(), s.blocked);
  s.channel = s.blocked[0];
  s.blocked[0] *= shape.channels();
  return s;
}

/// Canonical offset of channel 0 at the row `pos` (innermost entry unused),
/// innermost coordinate `x`.
i64 row_offset(const i64* stride, int last, const i64* pos, i64 x) {
  i64 offset = x * stride[last];
  for (int d = 0; d < last; ++d) offset += pos[d] * stride[d];
  return offset;
}

/// Copy `n` floats read `step` apart from `src` to contiguous `dst`
/// (gather), or contiguous `src` to `dst` `step` apart (scatter). Rows are
/// contiguous (step 1) except in an activation without spatial dims, whose
/// innermost blocked dim is the batch.
void gather_run(const float* src, i64 step, i64 n, float* dst) {
  if (step == 1) {
    copy_run(src, n, dst);
  } else {
    for (i64 i = 0; i < n; ++i) dst[i] = src[i * step];
  }
}

void scatter_run(const float* src, i64 n, float* dst, i64 step) {
  if (step == 1) {
    copy_run(src, n, dst);
  } else {
    for (i64 i = 0; i < n; ++i) dst[i * step] = src[i];
  }
}

}  // namespace

void canonical_read_window(const Tensor& t, const Dims& lo, const Dims& extent,
                           std::span<float> scratch) {
  const Shape shape(t.dims());
  const Dims bounds = shape.blocked_dims();
  const i64 channels = shape.channels();
  const i64 points = extent.product();
  BDL_CHECK(lo.rank() == bounds.rank() && extent.rank() == bounds.rank());
  BDL_CHECK(static_cast<i64>(scratch.size()) >= channels * points);
  const CanonicalStrides stride = canonical_strides(shape);
  const int last = extent.rank() - 1;
  const i64 width = extent[last];
  for_each_window_row(
      lo, extent, Dims::filled(bounds.rank(), 0), bounds,
      [&](i64 row, const i64* pos, i64 x_lo, i64 x_hi) {
        const i64 left = x_lo - lo[last];
        const i64 run = x_hi - x_lo;
        const float* src =
            run > 0 ? t.data() + row_offset(stride.blocked, last, pos, x_lo)
                    : nullptr;
        for (i64 c = 0; c < channels; ++c) {
          float* dst = scratch.data() + c * points + row;
          zero_run(dst, left);
          if (run > 0) {
            gather_run(src + c * stride.channel, stride.blocked[last], run,
                       dst + left);
          }
          zero_run(dst + left + run, width - left - run);
        }
      });
}

void canonical_write_window(Tensor& t, const Dims& lo, const Dims& extent,
                            std::span<const float> scratch) {
  const Shape shape(t.dims());
  const Dims bounds = shape.blocked_dims();
  const i64 channels = shape.channels();
  const i64 points = extent.product();
  BDL_CHECK(lo.rank() == bounds.rank() && extent.rank() == bounds.rank());
  BDL_CHECK(static_cast<i64>(scratch.size()) >= channels * points);
  const CanonicalStrides stride = canonical_strides(shape);
  const int last = extent.rank() - 1;
  for_each_window_row(
      lo, extent, Dims::filled(bounds.rank(), 0), bounds,
      [&](i64 row, const i64* pos, i64 x_lo, i64 x_hi) {
        if (x_hi == x_lo) return;
        float* dst = t.data() + row_offset(stride.blocked, last, pos, x_lo);
        const float* src = scratch.data() + row + (x_lo - lo[last]);
        for (i64 c = 0; c < channels; ++c) {
          scatter_run(src + c * points, x_hi - x_lo, dst + c * stride.channel,
                      stride.blocked[last]);
        }
      });
}

void extract_subwindow(std::span<const float> src, const Dims& src_lo,
                       const Dims& src_extent, i64 channels, const Dims& lo,
                       const Dims& extent, std::span<float> dst) {
  const i64 points = extent.product();
  const i64 src_points = src_extent.product();
  BDL_CHECK(lo.rank() == src_lo.rank() && extent.rank() == src_lo.rank() &&
            src_extent.rank() == src_lo.rank());
  BDL_CHECK(static_cast<i64>(src.size()) >= channels * src_points);
  BDL_CHECK(static_cast<i64>(dst.size()) >= channels * points);
  i64 src_stride[Dims::kMaxRank];
  row_major_strides(src_extent, src_stride);
  Dims src_hi = src_lo;
  for (int d = 0; d < src_hi.rank(); ++d) src_hi[d] += src_extent[d];
  const int last = extent.rank() - 1;
  const i64 width = extent[last];
  for_each_window_row(
      lo, extent, src_lo, src_hi,
      [&](i64 row, const i64* pos, i64 x_lo, i64 x_hi) {
        const i64 left = x_lo - lo[last];
        const i64 run = x_hi - x_lo;
        i64 src_off = x_lo - src_lo[last];
        for (int d = 0; d < last; ++d) {
          src_off += (pos[d] - src_lo[d]) * src_stride[d];
        }
        for (i64 c = 0; c < channels; ++c) {
          float* out = dst.data() + c * points + row;
          zero_run(out, left);
          if (run > 0) {
            copy_run(src.data() + c * src_points + src_off, run, out + left);
          }
          zero_run(out + left + run, width - left - run);
        }
      });
}

}  // namespace brickdl
