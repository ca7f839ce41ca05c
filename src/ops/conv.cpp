#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

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
  const ConvWeightLayout layout(node);
  const i64 c_group = layout.c_group;
  const i64 m_group = layout.m_group;
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
    for (i64 m = 0; m < a.out_channels; ++m) {
      const i64 g = m / m_group;
      const float* w_m = weights.data() + layout.index(m, 0, 0);
      double acc = 0.0;
      for_each_index(a.kernel, [&](const Dims& tap) {
        Dims in_abs = abs;
        for (int d = 0; d < spatial_rank; ++d) {
          if (!a.transposed) {
            in_abs[d + 1] = abs[d + 1] * a.stride[d] - a.padding[d] +
                            a.dilation[d] * tap[d];
            continue;
          }
          // Transposed: output o accumulates in(i)·w(t) where o = i·s − p + d·t.
          const i64 numer = abs[d + 1] + a.padding[d] - a.dilation[d] * tap[d];
          if (numer % a.stride[d] != 0) return;
          in_abs[d + 1] = numer / a.stride[d];
        }
        const float* w_t = w_m + a.kernel.linear(tap) * c_group * m_group;
        for (i64 cg = 0; cg < c_group; ++cg) {
          acc += static_cast<double>(
                     window_at(input, g * c_group + cg, in_abs)) *
                 w_t[cg * m_group];
        }
      });
      float v = static_cast<float>(acc);
      if (relu && v < 0.0f) v = 0.0f;
      out[static_cast<size_t>(m * out_points + point)] = v;
    }
  });
}

// --- Vectorized interior micro-kernel --------------------------------------
//
// One call computes kBlockM consecutive output channels of one group at a
// block of output positions, one accumulator per position. Per (tap, group
// channel) step it loads kBlockM contiguous weights (ConvWeightLayout),
// widens them once, and does one FMA per position against that position's
// input value, broadcast from a double copy of the input window. Every
// position reads at its own offset, so any stride, dilation or region shape
// runs the same code.
//
// Bit-exactness: every output keeps its own double accumulator and sees the
// same summation sequence as conv_box — taps row-major, then group channels,
// starting from 0.0. A float×float product is exact in double (24+24
// significand bits < 53, and the exponent range cannot overflow or go
// subnormal), so computing it in a vector lane, or fusing it into an FMA,
// rounds exactly like the scalar multiply-then-add. Vectorizing across
// positions and output channels never reorders any single output's sum.
//
// Written with GCC vector extensions; the ISA is picked once at run time, so
// the library needs no -march flag. Each ISA's position block keeps every
// accumulator in a register (x86-64-v4: 16 positions in 16 of 32 zmm; v3: 4
// in 8 of 16 ymm; portable default: 2 in 8 of 16 xmm). ThreadSanitizer
// builds compile only the default kernel.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define BRICKDL_ISA_DISPATCH 1
#endif

typedef float f8 __attribute__((vector_size(32)));
typedef double d8 __attribute__((vector_size(64)));

constexpr i64 kBlockM = 8;       // output channels per accumulator
constexpr int kMaxBlockP = 16;   // positions per call on the widest ISA
constexpr i64 kWidenCap = 8192;  // doubles of widened input per band

/// Operands of one micro-kernel call. Offsets are in elements.
struct ConvBlock {
  const double* in;  // widened input of the group, first channel
  i64 in_points;     // doubles per widened input channel
  const i64* tap_off;
  i64 taps;
  i64 c_group;
  const float* w;    // weight of the block's first channel at (tap 0, c 0)
  i64 m_group;       // floats per (tap, channel) step of the weights
  float* out;        // block's first output channel
  i64 out_points;    // floats per output channel
  bool relu;
  i64 in_off[kMaxBlockP];   // input offset of each position at tap 0
  i64 out_off[kMaxBlockP];  // output offset of each position
};

template <int kP>
[[gnu::always_inline]] inline void conv_block(const ConvBlock& b) {
  d8 acc[kP] = {};
  const float* w = b.w;
  for (i64 t = 0; t < b.taps; ++t) {
    const double* in_t = b.in + b.tap_off[t];
    for (i64 c = 0; c < b.c_group; ++c, w += b.m_group) {
      f8 wf;
      std::memcpy(&wf, w, sizeof wf);
      const d8 wd = __builtin_convertvector(wf, d8);
      const double* x = in_t + c * b.in_points;
      for (int p = 0; p < kP; ++p) acc[p] += x[b.in_off[p]] * wd;
    }
  }
  for (int p = 0; p < kP; ++p) {
    f8 v = __builtin_convertvector(acc[p], f8);
    // Same predicate as the scalar path (keeps -0.0 and NaN).
    if (b.relu) v = v < 0.0f ? f8{} : v;
    float* o = b.out + b.out_off[p];
    for (int m = 0; m < kBlockM; ++m) o[m * b.out_points] = v[m];
  }
}

struct Microkernel {
  int positions;
  void (*run)(const ConvBlock&);
};

#ifdef BRICKDL_ISA_DISPATCH
[[gnu::target("arch=x86-64-v4")]] void conv_block_v4(const ConvBlock& b) {
  conv_block<16>(b);
}
[[gnu::target("arch=x86-64-v3")]] void conv_block_v3(const ConvBlock& b) {
  conv_block<4>(b);
}
#endif
void conv_block_default(const ConvBlock& b) { conv_block<2>(b); }

const Microkernel& microkernel() {
  static const Microkernel kernel = []() -> Microkernel {
#ifdef BRICKDL_ISA_DISPATCH
    if (__builtin_cpu_supports("x86-64-v4")) return {16, conv_block_v4};
    if (__builtin_cpu_supports("x86-64-v3")) return {4, conv_block_v3};
#endif
    return {2, conv_block_default};
  }();
  return kernel;
}

/// Calls fn(in_row, out_row) for every row of the output box [lo, hi) (a
/// row runs along the innermost blocked dim): in_row is the offset, in a
/// window at `win_lo` with strides `in_stride`, that x = 0 of the row reads
/// at tap 0, and out_row the output offset of x = 0.
template <typename Fn>
void for_each_row(const detail::StencilDim* dims, const Dims& win_lo,
                  const i64* in_stride, const Dims& out_lo,
                  const i64* out_stride, const Dims& lo, const Dims& hi,
                  Fn&& fn) {
  const int last = lo.rank() - 1;
  i64 idx[Dims::kMaxRank];
  for (int d = 0; d < last; ++d) idx[d] = lo[d];
  while (true) {
    i64 in_row = dims[last].base - win_lo[last];
    i64 out_row = -out_lo[last];
    for (int d = 0; d < last; ++d) {
      in_row +=
          (idx[d] * dims[d].scale + dims[d].base - win_lo[d]) * in_stride[d];
      out_row += (idx[d] - out_lo[d]) * out_stride[d];
    }
    fn(in_row, out_row);
    int d = last - 1;
    for (; d >= 0; --d) {
      if (++idx[d] < hi[d]) break;
      idx[d] = lo[d];
    }
    if (d < 0) return;
  }
}

/// The input box [*in_lo, *in_lo + *in_extent) that the output box
/// [lo, hi) reads.
void input_box(const detail::StencilDim* dims, const Dims& lo, const Dims& hi,
               Dims* in_lo, Dims* in_extent) {
  *in_lo = lo;
  *in_extent = lo;
  for (int d = 0; d < lo.rank(); ++d) {
    const detail::StencilDim& s = dims[d];
    const i64 span = s.tapc * (s.ktaps - 1);
    (*in_lo)[d] = lo[d] * s.scale + s.base + std::min<i64>(span, 0);
    (*in_extent)[d] = (hi[d] - 1 - lo[d]) * s.scale + std::abs(span) + 1;
  }
}

/// Halves the output box [lo, hi) along its outermost dim longer than 1
/// until each part's input box over `channels` channels fits kWidenCap
/// doubles (or the part is one point); calls fn(lo, hi) per part.
template <typename Fn>
void for_each_band(const detail::StencilDim* dims, const Dims& lo,
                   const Dims& hi, i64 channels, Fn&& fn) {
  Dims in_lo, in_extent;
  input_box(dims, lo, hi, &in_lo, &in_extent);
  int split = 0;
  while (split < lo.rank() && hi[split] - lo[split] == 1) ++split;
  if (channels * in_extent.product() <= kWidenCap || split == lo.rank()) {
    fn(lo, hi);
    return;
  }
  Dims first_hi = hi, second_lo = lo;
  first_hi[split] = second_lo[split] = lo[split] + (hi[split] - lo[split]) / 2;
  for_each_band(dims, lo, first_hi, channels, fn);
  for_each_band(dims, second_lo, hi, channels, fn);
}

/// Interior fast path: every tap of every point reads inside the input
/// window, so the loops are hand-flattened with precomputed strides and
/// per-tap input-offset deltas — no odometer, no per-tap validity checks.
/// Groups of at least kBlockM output channels run through the vector
/// micro-kernel; a channel tail reuses the last full block shifted back to
/// end at the group's last channel (the overlapped outputs are recomputed
/// with identical bits), and a partial position block repeats its last
/// position. Smaller groups (depthwise included) take the scalar loop.
/// Accumulation order per output element (taps row-major, then group
/// channels) matches conv_box exactly, so results are bit-identical.
void conv_interior(const Node& node, const RegionInput& input,
                   std::span<const float> weights,
                   const detail::StencilDim* dims, const Dims& ilo,
                   const Dims& ihi, const Dims& out_lo, const Dims& out_extent,
                   std::span<float> out) {
  const OpAttrs& a = node.attrs;
  const int last = out_lo.rank() - 1;
  const ConvWeightLayout layout(node);
  const i64 c_group = layout.c_group;
  const i64 m_group = layout.m_group;
  const i64 taps = layout.taps;
  const i64 out_points = out_extent.product();
  const i64 x_scale = dims[last].scale;
  const bool relu = a.fused_relu;
  i64 out_stride[Dims::kMaxRank];
  row_major_strides(out_extent, out_stride);
  i64 in_stride[Dims::kMaxRank];
  i64 tap_off[detail::kMaxInteriorTaps];

  if (m_group < kBlockM) {
    const i64 in_points = input.extent.product();
    row_major_strides(input.extent, in_stride);
    detail::tap_offsets(a.kernel, dims, in_stride, tap_off);
    for (i64 m = 0; m < a.out_channels; ++m) {
      const float* w_m = weights.data() + layout.index(m, 0, 0);
      const float* in_g =
          input.data.data() + (m / m_group) * c_group * in_points;
      float* out_m = out.data() + m * out_points;
      for_each_row(dims, input.lo, in_stride, out_lo, out_stride, ilo, ihi,
                   [&](i64 in_row, i64 out_row) {
        for (i64 x = ilo[last]; x < ihi[last]; ++x) {
          double acc = 0.0;
          for (i64 t = 0; t < taps; ++t) {
            const float* in_t = in_g + in_row + x * x_scale + tap_off[t];
            const float* w_t = w_m + t * c_group * m_group;
            for (i64 cg = 0; cg < c_group; ++cg) {
              acc += static_cast<double>(in_t[cg * in_points]) *
                     w_t[cg * m_group];
            }
          }
          float v = static_cast<float>(acc);
          if (relu && v < 0.0f) v = 0.0f;
          out_m[out_row + x] = v;
        }
      });
    }
    return;
  }

  const Microkernel& kernel = microkernel();
  // The widened input lives on the stack: a band's input box fits kWidenCap
  // doubles unless a single output point reads more, which takes the heap.
  alignas(64) double stack_widened[kWidenCap];
  std::vector<double> heap_widened;
  i64 src_stride[Dims::kMaxRank];
  row_major_strides(input.extent, src_stride);
  const i64 src_points = input.extent.product();
  for (i64 g = 0; g < a.groups; ++g) {
    for_each_band(dims, ilo, ihi, c_group, [&](const Dims& lo, const Dims& hi) {
      // Widen the group's channels over the band's input box once.
      Dims box_lo, box_extent;
      input_box(dims, lo, hi, &box_lo, &box_extent);
      const i64 box_points = box_extent.product();
      double* widened = stack_widened;
      if (c_group * box_points > kWidenCap) {
        heap_widened.resize(static_cast<size_t>(c_group * box_points));
        widened = heap_widened.data();
      }
      const float* src_g = input.data.data() + g * c_group * src_points;
      const i64 width = box_extent[last];
      Dims rows = box_extent;
      rows[last] = 1;
      i64 row = 0;
      for_each_index(rows, [&](const Dims& r) {
        i64 src = 0;
        for (int d = 0; d <= last; ++d) {
          src += (r[d] + box_lo[d] - input.lo[d]) * src_stride[d];
        }
        for (i64 c = 0; c < c_group; ++c) {
          const float* s = src_g + c * src_points + src;
          double* w = widened + c * box_points + row;
          for (i64 i = 0; i < width; ++i) w[i] = s[i];
        }
        row += width;
      });

      row_major_strides(box_extent, in_stride);
      detail::tap_offsets(a.kernel, dims, in_stride, tap_off);
      ConvBlock b{.in = widened, .in_points = box_points, .tap_off = tap_off,
                  .taps = taps, .c_group = c_group, .w = nullptr,
                  .m_group = m_group, .out = nullptr, .out_points = out_points,
                  .relu = relu, .in_off = {}, .out_off = {}};
      int n = 0;
      auto flush = [&] {
        for (int p = n; p < kernel.positions; ++p) {
          b.in_off[p] = b.in_off[n - 1];
          b.out_off[p] = b.out_off[n - 1];
        }
        for (i64 mb = 0; mb < m_group; mb += kBlockM) {
          const i64 m = g * m_group + std::min(mb, m_group - kBlockM);
          b.w = weights.data() + layout.index(m, 0, 0);
          b.out = out.data() + m * out_points;
          kernel.run(b);
        }
        n = 0;
      };
      for_each_row(dims, box_lo, in_stride, out_lo, out_stride, lo, hi,
                   [&](i64 in_row, i64 out_row) {
        for (i64 x = lo[last]; x < hi[last]; ++x) {
          b.in_off[n] = in_row + x * x_scale;
          b.out_off[n] = out_row + x;
          if (++n == kernel.positions) flush();
        }
      });
      if (n > 0) flush();
    });
  }
}

void conv_checks(const Node& node, const RegionInput& input,
                 std::span<const float> weights, const Dims& out_lo,
                 const Dims& out_extent, std::span<float> out) {
  const OpAttrs& a = node.attrs;
  BDL_CHECK(out_lo.rank() == a.kernel.rank() + 1);
  BDL_CHECK(static_cast<i64>(out.size()) >=
            a.out_channels * out_extent.product());
  BDL_CHECK(static_cast<i64>(weights.size()) >=
            a.out_channels * (input.channels / a.groups) * a.kernel.product());
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
  Dims box_lo = out_lo, box_hi = out_lo;
  for (int d = 0; d < rank; ++d) box_lo[d] = ilo[d], box_hi[d] = ihi[d];
  conv_interior(node, input, weights, dims, box_lo, box_hi, out_lo, out_extent,
                out);
  detail::for_each_boundary_slab(
      rank, out_lo, out_extent, ilo, ihi,
      [&](const Dims& slab_lo, const Dims& slab_extent) {
        conv_box(node, input, weights, slab_lo, slab_extent, out_lo,
                 out_extent, out);
      });
}

}  // namespace brickdl
