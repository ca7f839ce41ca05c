// Row-major iteration over an N-D index space, point by point or row by
// row (the row-wise walk backs the window gather/scatter copies).
#pragma once

#include <algorithm>
#include <cstring>

#include "tensor/shape.hpp"

namespace brickdl {

/// Call fn(index) for every index vector in [0, extent), row-major order.
template <typename Fn>
void for_each_index(const Dims& extent, Fn&& fn) {
  const i64 total = extent.product();
  if (total <= 0) return;
  Dims index = Dims::filled(extent.rank(), 0);
  for (i64 i = 0; i < total; ++i) {
    fn(index);
    for (int d = extent.rank() - 1; d >= 0; --d) {
      if (++index[d] < extent[d]) break;
      index[d] = 0;
    }
  }
}

/// Row-major element strides of an array of extent `extent`.
inline void row_major_strides(const Dims& extent, i64* stride) {
  const int rank = extent.rank();
  stride[rank - 1] = 1;
  for (int d = rank - 2; d >= 0; --d) {
    stride[d] = stride[d + 1] * extent[d + 1];
  }
}

/// Row-wise walk over the window [lo, lo+extent) of a source that holds the
/// box [src_lo, src_hi); a row runs along the innermost dim. Calls
/// fn(row, pos, x_lo, x_hi) once per row, in row-major order: `row` is the
/// window-relative offset of the row's first element, `pos` the row's
/// absolute coordinates (innermost entry unused) and [x_lo, x_hi) the
/// absolute innermost range the source holds — empty (x_lo == x_hi, still
/// within the row) when the row or an outer coordinate lies outside it.
template <typename Fn>
void for_each_window_row(const Dims& lo, const Dims& extent,
                         const Dims& src_lo, const Dims& src_hi, Fn&& fn) {
  if (extent.product() <= 0) return;
  const int last = extent.rank() - 1;
  const i64 width = extent[last];
  const i64 x_lo = std::clamp(src_lo[last], lo[last], lo[last] + width);
  const i64 x_hi =
      std::max(x_lo, std::min(lo[last] + width, src_hi[last]));
  i64 pos[Dims::kMaxRank];
  i64 first[Dims::kMaxRank];
  i64 end[Dims::kMaxRank];
  i64 inside_lo[Dims::kMaxRank];
  i64 inside_hi[Dims::kMaxRank];
  for (int d = 0; d < last; ++d) {
    pos[d] = first[d] = lo[d];
    end[d] = lo[d] + extent[d];
    inside_lo[d] = src_lo[d];
    inside_hi[d] = src_hi[d];
  }
  const i64 rows = extent.product() / width;
  for (i64 r = 0; r < rows; ++r) {
    bool inside = true;
    for (int d = 0; d < last; ++d) {
      inside = inside && pos[d] >= inside_lo[d] && pos[d] < inside_hi[d];
    }
    fn(r * width, static_cast<const i64*>(pos), x_lo, inside ? x_hi : x_lo);
    for (int d = last - 1; d >= 0; --d) {
      if (++pos[d] < end[d]) break;
      pos[d] = first[d];
    }
  }
}

/// Copy a run of `n` floats. Window rows are often a brick wide (a few
/// floats), where a library memmove call costs more than the copy itself,
/// so short runs move inline, four floats at a time.
inline void copy_run(const float* src, i64 n, float* dst) {
  if (n >= 32) {
    std::copy_n(src, n, dst);
    return;
  }
  i64 i = 0;
  for (; i + 4 <= n; i += 4) std::memcpy(dst + i, src + i, 4 * sizeof(float));
  for (; i < n; ++i) dst[i] = src[i];
}

/// Zero a run of `n` floats (short runs inline, as copy_run).
inline void zero_run(float* dst, i64 n) {
  if (n >= 32) {
    std::fill_n(dst, n, 0.0f);
    return;
  }
  for (i64 i = 0; i < n; ++i) dst[i] = 0.0f;
}

}  // namespace brickdl
