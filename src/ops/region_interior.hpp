// Interior/boundary decomposition shared by the stencil region kernels.
//
// A stencil kernel (conv, pool) reads, for output coordinate `o` in blocked
// dim `d`, input coordinates `o*scale + base + tapc*tap` for tap in
// [0, ktaps). The *interior* of an output region is the largest box where
// every tap of every point lands inside the gathered input window — there the
// kernel needs no per-tap validity checks and runs a hand-flattened fast
// loop. The remaining boundary shell is decomposed into at most 2*rank
// axis-aligned slabs, each handled by the generic (clamping) code path.
//
// Coordinates are signed: halo windows start below zero, so the bounds use
// floor/ceil division that is correct for negative numerators.
#pragma once

#include <algorithm>

#include "tensor/shape.hpp"

namespace brickdl {
namespace detail {

/// Floor division for b > 0 and any sign of a.
inline i64 floor_div(i64 a, i64 b) {
  const i64 q = a / b;
  return q * b > a ? q - 1 : q;
}

inline i64 ceil_div(i64 a, i64 b) { return -floor_div(-a, b); }

/// Per-blocked-dim affine read pattern: input = out*scale + base + tapc*tap,
/// tap in [0, ktaps). Batch dims are {1, 0, 0, 1} (identity, no taps).
struct StencilDim {
  i64 scale = 1;
  i64 base = 0;
  i64 tapc = 0;
  i64 ktaps = 1;
};

/// Largest output box (absolute blocked coords, [lo, hi) per dim) within
/// [out_lo, out_lo+out_extent) whose every tap reads inside
/// [win_lo, win_lo+win_extent). Returns false if the box is empty.
inline bool interior_box(int rank, const StencilDim* dims, const Dims& win_lo,
                         const Dims& win_extent, const Dims& out_lo,
                         const Dims& out_extent, i64* ilo, i64* ihi) {
  for (int d = 0; d < rank; ++d) {
    const StencilDim& s = dims[d];
    const i64 span = s.tapc * (s.ktaps - 1);
    const i64 tap_min = span < 0 ? span : 0;
    const i64 tap_max = span > 0 ? span : 0;
    const i64 lo = ceil_div(win_lo[d] - s.base - tap_min, s.scale);
    const i64 hi =
        floor_div(win_lo[d] + win_extent[d] - 1 - s.base - tap_max, s.scale) +
        1;
    ilo[d] = std::max(out_lo[d], lo);
    ihi[d] = std::min(out_lo[d] + out_extent[d], hi);
    if (ihi[d] <= ilo[d]) return false;
  }
  return true;
}

/// Upper bound on a stencil's tap count for the interior fast paths, which
/// keep their per-tap offsets in a stack array. Larger kernels (never seen
/// in the model zoo) run entirely through the generic path.
inline constexpr i64 kMaxInteriorTaps = 512;

/// Input-offset delta of each tap of `kernel` (row-major tap order, the
/// generic paths' visit order) for a window with strides `in_stride`.
/// `dims` holds the blocked dims, so spatial dim d is dims[d + 1].
/// Requires kernel.product() <= kMaxInteriorTaps.
inline void tap_offsets(const Dims& kernel, const StencilDim* dims,
                        const i64* in_stride, i64* tap_off) {
  const int spatial_rank = kernel.rank();
  const i64 taps = kernel.product();
  i64 tap[Dims::kMaxRank] = {};
  for (i64 t = 0; t < taps; ++t) {
    i64 off = 0;
    for (int d = 0; d < spatial_rank; ++d) {
      off += dims[d + 1].tapc * tap[d] * in_stride[d + 1];
    }
    tap_off[t] = off;
    for (int d = spatial_rank - 1; d >= 0; --d) {
      if (++tap[d] < kernel[d]) break;
      tap[d] = 0;
    }
  }
}

/// Visit the (up to 2*rank) axis-aligned slabs covering
/// [out_lo, out_lo+out_extent) minus the interior box [ilo, ihi). Slabs are
/// disjoint: dims before `d` are clamped to the interior, dim `d` takes the
/// band below or above it, later dims span the full region.
template <typename Fn>
void for_each_boundary_slab(int rank, const Dims& out_lo,
                            const Dims& out_extent, const i64* ilo,
                            const i64* ihi, Fn&& fn) {
  for (int d = 0; d < rank; ++d) {
    Dims lo = out_lo;
    Dims extent = out_extent;
    for (int q = 0; q < d; ++q) {
      lo[q] = ilo[q];
      extent[q] = ihi[q] - ilo[q];
    }
    if (ilo[d] > out_lo[d]) {
      Dims slab_lo = lo;
      Dims slab_extent = extent;
      slab_lo[d] = out_lo[d];
      slab_extent[d] = ilo[d] - out_lo[d];
      fn(slab_lo, slab_extent);
    }
    if (ihi[d] < out_lo[d] + out_extent[d]) {
      Dims slab_lo = lo;
      Dims slab_extent = extent;
      slab_lo[d] = ihi[d];
      slab_extent[d] = out_lo[d] + out_extent[d] - ihi[d];
      fn(slab_lo, slab_extent);
    }
  }
}

}  // namespace detail
}  // namespace brickdl
