#include <algorithm>
#include <cstring>
#include <type_traits>

#include "ops/region.hpp"
#include "ops/region_interior.hpp"
#include "util/odometer.hpp"

namespace brickdl {
namespace {

/// Read input window at relative blocked position, zero outside the window.
inline float window_at(const RegionInput& in, i64 channel, const Dims& abs) {
  i64 offset = 0;
  for (int d = 0; d < abs.rank(); ++d) {
    const i64 rel = abs[d] - in.lo[d];
    if (rel < 0 || rel >= in.extent[d]) return 0.0f;
    offset = offset * in.extent[d] + rel;
  }
  return in.data[static_cast<size_t>(channel * in.extent.product() + offset)];
}

/// Generic (per-tap clamping) convolution over the box
/// [box_lo, box_lo+box_extent), writing at offsets relative to the full
/// output region [out_lo, out_lo+out_extent). Serves both the whole-region
/// generic path and the boundary slabs around an interior fast-path box.
void conv_box(const Node& node, const RegionInput& input,
              std::span<const float> weights, const Dims& box_lo,
              const Dims& box_extent, const Dims& out_lo,
              const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int spatial_rank = a.kernel.rank();
  const i64 m_total = a.out_channels;
  const i64 c_group = input.channels / a.groups;
  const i64 m_group = m_total / a.groups;
  const i64 taps = a.kernel.product();
  const i64 out_points = out_extent.product();

  const bool relu = a.fused_relu;
  for_each_index(box_extent, [&](const Dims& rel) {
    Dims abs = rel;
    Dims out_rel = rel;
    for (int d = 0; d <= spatial_rank; ++d) {
      abs[d] += box_lo[d];
      out_rel[d] = abs[d] - out_lo[d];
    }
    const i64 point = out_extent.linear(out_rel);
    for (i64 m = 0; m < m_total; ++m) {
      const i64 g = m / m_group;
      const float* w_m = weights.data() + m * c_group * taps;
      double acc = 0.0;
      if (!a.transposed) {
        for_each_index(a.kernel, [&](const Dims& tap) {
          Dims in_abs = abs;
          for (int d = 0; d < spatial_rank; ++d) {
            in_abs[d + 1] = abs[d + 1] * a.stride[d] - a.padding[d] +
                            a.dilation[d] * tap[d];
          }
          const i64 t = a.kernel.linear(tap);
          for (i64 cg = 0; cg < c_group; ++cg) {
            acc += static_cast<double>(
                       window_at(input, g * c_group + cg, in_abs)) *
                   w_m[cg * taps + t];
          }
        });
      } else {
        // Transposed: output o accumulates in(i)·w(t) where o = i·s − p + d·t.
        for_each_index(a.kernel, [&](const Dims& tap) {
          Dims in_abs = abs;
          bool valid = true;
          for (int d = 0; d < spatial_rank && valid; ++d) {
            const i64 numer =
                abs[d + 1] + a.padding[d] - a.dilation[d] * tap[d];
            if (numer % a.stride[d] != 0) {
              valid = false;
            } else {
              in_abs[d + 1] = numer / a.stride[d];
            }
          }
          if (!valid) return;
          const i64 t = a.kernel.linear(tap);
          for (i64 cg = 0; cg < c_group; ++cg) {
            acc += static_cast<double>(
                       window_at(input, g * c_group + cg, in_abs)) *
                   w_m[cg * taps + t];
          }
        });
      }
      float v = static_cast<float>(acc);
      if (relu && v < 0.0f) v = 0.0f;
      out[static_cast<size_t>(m * out_points + point)] = v;
    }
  });
}

// --- Vectorized interior micro-kernel --------------------------------------
//
// A *strip* is kLanes consecutive output positions along the innermost
// blocked dim. One micro-kernel call computes kBlockM output channels of one
// group over kBlockStrips strips, all in registers: per (tap, group channel)
// step it loads one input vector per strip and broadcasts one weight per
// output channel.
//
// Bit-exactness: every output keeps its own double accumulator and sees the
// same summation sequence as conv_box — taps row-major, then group channels,
// starting from 0.0. A float×float product is exact in double (24+24
// significand bits < 53, and the exponent range cannot overflow or go
// subnormal), so computing it in a vector lane, or fusing it into an FMA,
// rounds exactly like the scalar multiply-then-add. Vectorizing across
// positions and output channels never reorders any single output's sum.
//
// Written with GCC vector extensions. The ISA is chosen at load time
// (target_clones), so the library needs no -march flag; the default clone
// is portable SSE2 code. ThreadSanitizer builds compile only that clone:
// TSan instruments the clones' ifunc resolver, which runs before the TSan
// runtime is initialized and crashes.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define BRICKDL_ISA_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define BRICKDL_ISA_CLONES
#endif

typedef float f4 __attribute__((vector_size(16)));
typedef float f8 __attribute__((vector_size(32)));
typedef double d4 __attribute__((vector_size(32)));
typedef int i4 __attribute__((vector_size(16)));
typedef int i8 __attribute__((vector_size(32)));

constexpr int kLanes = 4;        // output positions per strip
constexpr int kBlockM = 4;       // output channels per micro-kernel call
constexpr int kBlockStrips = 4;  // strips per micro-kernel call

/// Operands of one micro-kernel call. Offsets are in floats.
struct StripBlock {
  const float* in;    // first input channel of the group
  i64 in_points;      // floats per input channel
  const float* w;     // weights of the block's first output channel
  i64 w_stride;       // floats per output channel of weights (c_group * taps)
  const i64* tap_off;
  i64 taps;
  i64 c_group;
  float* out;         // block's first output channel
  i64 out_points;     // floats per output channel
  bool relu;
  i64 lanes;          // leading lanes of each strip stored (<= kLanes)
  i64 in_off[kBlockStrips];   // input offset where each strip's load starts
  int shift[kBlockStrips];    // first lane's position within that load
  i64 out_off[kBlockStrips];  // output offset of each strip's first lane
};

/// A strip loads kLanes floats (stride 1) or 2*kLanes floats of which it
/// keeps every other one (stride 2). A load that would run past the end of
/// the input channel starts `shift` floats early instead, and the lanes are
/// picked from it by a per-strip permutation (kShifted; stride 2 always
/// permutes, which costs what a fixed even-lane shuffle does).
template <int kStride, bool kShifted>
[[gnu::always_inline]] inline void strip_block(const StripBlock& b) {
  static_assert(kStride == 1 || (kStride == 2 && kShifted));
  using Sel = std::conditional_t<kStride == 1, i4, i8>;
  Sel sel[kBlockStrips];
  for (int q = 0; q < kBlockStrips; ++q) {
    for (int j = 0; j < kStride * kLanes; ++j) {
      sel[q][j] = std::min(j * kStride + b.shift[q], kStride * kLanes - 1);
    }
  }
  d4 acc[kBlockM][kBlockStrips] = {};
  for (i64 t = 0; t < b.taps; ++t) {
    const float* in_t = b.in + b.tap_off[t];
    const float* w_t = b.w + t;
    for (i64 cg = 0; cg < b.c_group; ++cg) {
      const float* in_c = in_t + cg * b.in_points;
      d4 x[kBlockStrips];
      for (int q = 0; q < kBlockStrips; ++q) {
        f4 v;
        if constexpr (kStride == 1) {
          std::memcpy(&v, in_c + b.in_off[q], sizeof v);
          if constexpr (kShifted) v = __builtin_shuffle(v, sel[q]);
        } else {
          f8 pair;
          std::memcpy(&pair, in_c + b.in_off[q], sizeof pair);
          pair = __builtin_shuffle(pair, sel[q]);
          v = __builtin_shufflevector(pair, pair, 0, 1, 2, 3);
        }
        x[q] = __builtin_convertvector(v, d4);
      }
      const float* w_c = w_t + cg * b.taps;
      for (int m = 0; m < kBlockM; ++m) {
        const double w = w_c[m * b.w_stride];
        for (int q = 0; q < kBlockStrips; ++q) acc[m][q] += x[q] * w;
      }
    }
  }
  for (int m = 0; m < kBlockM; ++m) {
    float* out_m = b.out + m * b.out_points;
    for (int q = 0; q < kBlockStrips; ++q) {
      f4 v = __builtin_convertvector(acc[m][q], f4);
      // Same predicate as the scalar path (keeps -0.0 and NaN).
      if (b.relu) v = v < 0.0f ? f4{} : v;
      if (b.lanes == kLanes) {
        std::memcpy(out_m + b.out_off[q], &v, sizeof v);
      } else {
        std::memcpy(out_m + b.out_off[q], &v,
                    static_cast<size_t>(b.lanes) * sizeof(float));
      }
    }
  }
}

BRICKDL_ISA_CLONES void strip_block_s1(const StripBlock& b) {
  strip_block<1, false>(b);
}
BRICKDL_ISA_CLONES void strip_block_s1_shifted(const StripBlock& b) {
  strip_block<1, true>(b);
}
BRICKDL_ISA_CLONES void strip_block_s2(const StripBlock& b) {
  strip_block<2, true>(b);
}

/// Interior fast path: every tap of every point reads inside the input
/// window, so the loops are hand-flattened with precomputed strides and
/// per-tap input-offset deltas — no odometer, no per-tap validity checks.
/// Strips of innermost stride 1 or 2 run through the vector micro-kernel;
/// a group with fewer than kBlockM output channels and other strides take
/// the scalar loop. A ragged row or channel tail reuses the last full strip
/// or block shifted back to end at the boundary: the overlapped outputs are
/// recomputed with identical bits.
/// Accumulation order per output element (taps row-major, then group
/// channels) matches conv_box exactly, so results are bit-identical.
void conv_interior(const Node& node, const RegionInput& input,
                   std::span<const float> weights,
                   const detail::StencilDim* dims, const i64* ilo,
                   const i64* ihi, const Dims& out_lo, const Dims& out_extent,
                   std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int last = out_lo.rank() - 1;
  const i64 c_group = input.channels / a.groups;
  const i64 m_group = a.out_channels / a.groups;
  const i64 taps = a.kernel.product();
  const i64 in_points = input.extent.product();
  const i64 out_points = out_extent.product();

  i64 in_stride[Dims::kMaxRank];
  i64 out_stride[Dims::kMaxRank];
  row_major_strides(input.extent, in_stride);
  row_major_strides(out_extent, out_stride);
  i64 tap_off[detail::kMaxInteriorTaps];
  detail::tap_offsets(a.kernel, dims, in_stride, tap_off);

  // Input offset of x = 0 and output offset of the row, per interior row.
  const i64 x_scale = dims[last].scale;
  const i64 x_base = dims[last].base - input.lo[last];
  auto for_each_row = [&](auto&& fn) {
    i64 idx[Dims::kMaxRank];
    for (int d = 0; d < last; ++d) idx[d] = ilo[d];
    while (true) {
      i64 in_row = x_base;
      i64 out_row = -out_lo[last];
      for (int d = 0; d < last; ++d) {
        in_row += (idx[d] * dims[d].scale + dims[d].base - input.lo[d]) *
                  in_stride[d];
        out_row += (idx[d] - out_lo[d]) * out_stride[d];
      }
      fn(in_row, out_row);
      int d = last - 1;
      for (; d >= 0; --d) {
        if (++idx[d] < ihi[d]) break;
        idx[d] = ilo[d];
      }
      if (d < 0) return;
    }
  };

  const bool relu = a.fused_relu;
  auto scalar = [&](i64 m, i64 in_row, i64 out_row, i64 x_lo, i64 x_hi) {
    const i64 g = m / m_group;
    const float* w_m = weights.data() + m * c_group * taps;
    const float* in_g = input.data.data() + g * c_group * in_points;
    float* out_m = out.data() + m * out_points;
    for (i64 x = x_lo; x < x_hi; ++x) {
      const i64 in_x = in_row + x * x_scale;
      double acc = 0.0;
      for (i64 t = 0; t < taps; ++t) {
        const float* in_t = in_g + in_x + tap_off[t];
        const float* w_t = w_m + t;
        for (i64 cg = 0; cg < c_group; ++cg) {
          acc += static_cast<double>(in_t[cg * in_points]) * w_t[cg * taps];
        }
      }
      float v = static_cast<float>(acc);
      if (relu && v < 0.0f) v = 0.0f;
      out_m[out_row + x] = v;
    }
  };

  const bool vector_ok = (x_scale == 1 || x_scale == 2) && m_group >= kBlockM;
  if (!vector_ok) {
    for (i64 m = 0; m < a.out_channels; ++m) {
      for_each_row([&](i64 in_row, i64 out_row) {
        scalar(m, in_row, out_row, ilo[last], ihi[last]);
      });
    }
    return;
  }

  // A row shorter than a strip runs as one partial strip: its extra lanes
  // read past the row and are never stored. A strip whose load would leave
  // the input channel (at the window's end: a stride-2 strip loads 2*kLanes
  // floats, a partial strip reads past its row) is shifted back; one that
  // cannot be (a channel smaller than one load) takes the scalar loop.
  const i64 row_len = ihi[last] - ilo[last];
  const i64 lanes = std::min<i64>(row_len, kLanes);
  const i64 min_tap_off = *std::min_element(tap_off, tap_off + taps);
  const i64 max_tap_off = *std::max_element(tap_off, tap_off + taps);
  const i64 strip_reach = x_scale == 1 ? kLanes : 2 * kLanes;
  for (i64 g = 0; g < a.groups; ++g) {
    for (i64 mb = 0; mb < m_group; mb += kBlockM) {
      const i64 m0 = g * m_group + std::min(mb, m_group - kBlockM);
      StripBlock b;
      b.in = input.data.data() + g * c_group * in_points;
      b.in_points = in_points;
      b.w = weights.data() + m0 * c_group * taps;
      b.w_stride = c_group * taps;
      b.tap_off = tap_off;
      b.taps = taps;
      b.c_group = c_group;
      b.out = out.data() + m0 * out_points;
      b.out_points = out_points;
      b.relu = relu;
      b.lanes = lanes;
      int n = 0;
      bool shifted = false;
      auto flush = [&] {
        // Pad a partial block by repeating its last strip.
        for (int q = n; q < kBlockStrips; ++q) {
          b.in_off[q] = b.in_off[n - 1];
          b.shift[q] = b.shift[n - 1];
          b.out_off[q] = b.out_off[n - 1];
        }
        if (x_scale == 2) {
          strip_block_s2(b);
        } else if (shifted) {
          strip_block_s1_shifted(b);
        } else {
          strip_block_s1(b);
        }
        n = 0;
        shifted = false;
      };
      for_each_row([&](i64 in_row, i64 out_row) {
        for (i64 x = ilo[last]; x < ihi[last]; x += kLanes) {
          const i64 x0 = std::max(ilo[last], std::min(x, ihi[last] - kLanes));
          const i64 in_off = in_row + x0 * x_scale;
          const i64 shift =
              std::max<i64>(0, in_off + max_tap_off + strip_reach - in_points);
          if (in_off - shift + min_tap_off < 0) {
            for (i64 m = m0; m < m0 + kBlockM; ++m) {
              scalar(m, in_row, out_row, x0, x0 + lanes);
            }
            continue;
          }
          b.in_off[n] = in_off - shift;
          b.shift[n] = static_cast<int>(shift);
          b.out_off[n] = out_row + x0;
          shifted = shifted || shift != 0;
          if (++n == kBlockStrips) flush();
        }
      });
      if (n > 0) flush();
    }
  }
}

void conv_checks(const Node& node, const RegionInput& input,
                 std::span<const float> weights, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  BDL_CHECK(out_lo.rank() == a.kernel.rank() + 1);
  const i64 c_group = input.channels / a.groups;
  BDL_CHECK(static_cast<i64>(out.size()) >=
            a.out_channels * out_extent.product());
  BDL_CHECK(static_cast<i64>(weights.size()) >=
            a.out_channels * c_group * a.kernel.product());
}

}  // namespace

void conv_region_generic(const Node& node, const RegionInput& input,
                         std::span<const float> weights, const Dims& out_lo,
                         const Dims& out_extent, std::span<float> out) {
  conv_checks(node, input, weights, out_lo, out_extent, out);
  conv_box(node, input, weights, out_lo, out_extent, out_lo, out_extent, out);
}

void conv_region(const Node& node, const RegionInput& input,
                 std::span<const float> weights, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out) {
  conv_checks(node, input, weights, out_lo, out_extent, out);
  const OpAttrs& a = node.attrs;
  const int rank = out_lo.rank();
  const int spatial_rank = rank - 1;

  // Transposed convolution with stride > 1 has stride-phase validity (some
  // taps divide, some don't) which the interior/boundary split does not
  // model; only the stride-1 case maps onto the affine stencil form.
  bool fast_ok = a.kernel.product() <= detail::kMaxInteriorTaps;
  if (a.transposed) {
    for (int d = 0; d < spatial_rank; ++d) {
      if (a.stride[d] != 1) fast_ok = false;
    }
  }

  detail::StencilDim dims[Dims::kMaxRank];
  i64 ilo[Dims::kMaxRank] = {};
  i64 ihi[Dims::kMaxRank] = {};
  if (fast_ok) {
    dims[0] = detail::StencilDim{};  // batch: identity, no taps
    for (int d = 0; d < spatial_rank; ++d) {
      detail::StencilDim& s = dims[d + 1];
      if (!a.transposed) {
        s = {a.stride[d], -a.padding[d], a.dilation[d], a.kernel[d]};
      } else {
        s = {1, a.padding[d], -a.dilation[d], a.kernel[d]};
      }
    }
    fast_ok = detail::interior_box(rank, dims, input.lo, input.extent, out_lo,
                                   out_extent, ilo, ihi);
  }
  if (!fast_ok) {
    conv_box(node, input, weights, out_lo, out_extent, out_lo, out_extent,
             out);
    return;
  }
  conv_interior(node, input, weights, dims, ilo, ihi, out_lo, out_extent, out);
  detail::for_each_boundary_slab(
      rank, out_lo, out_extent, ilo, ihi,
      [&](const Dims& slab_lo, const Dims& slab_extent) {
        conv_box(node, input, weights, slab_lo, slab_extent, out_lo,
                 out_extent, out);
      });
}

}  // namespace brickdl
