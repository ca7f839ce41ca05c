// Property tests for the row-wise window copies (tensor/window.hpp and
// BrickedTensor::read_window / write_window): every copy must reproduce a
// per-element reference kept here bit for bit (memcmp), over seeded shapes
// that include negative window origins, windows spilling past the tensor
// edge, layer sizes that are not a multiple of the brick, rank-3 and rank-4
// blocked shapes, and shuffled brick placements.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "brick/bricked_tensor.hpp"
#include "tensor/window.hpp"
#include "util/rng.hpp"

namespace brickdl {
namespace {

/// Canonical index [n, c, spatial...] of blocked position `blocked`.
Dims canonical_index(const Dims& blocked, i64 c) {
  Dims index;
  index.push_back(blocked[0]);
  index.push_back(c);
  for (int d = 1; d < blocked.rank(); ++d) index.push_back(blocked[d]);
  return index;
}

bool inside(const Dims& p, const Dims& lo, const Dims& extent) {
  for (int d = 0; d < p.rank(); ++d) {
    if (p[d] < lo[d] || p[d] >= lo[d] + extent[d]) return false;
  }
  return true;
}

/// Every window-relative position of `extent`, in row-major order.
std::vector<Dims> positions(const Dims& extent) {
  std::vector<Dims> out;
  Dims rel = Dims::filled(extent.rank(), 0);
  for (i64 i = 0; i < extent.product(); ++i) {
    out.push_back(rel);
    for (int d = extent.rank() - 1; d >= 0; --d) {
      if (++rel[d] < extent[d]) break;
      rel[d] = 0;
    }
  }
  return out;
}

Dims shifted(const Dims& rel, const Dims& lo) {
  Dims abs = rel;
  for (int d = 0; d < rel.rank(); ++d) abs[d] += lo[d];
  return abs;
}

/// Per-element reference gather from a canonical tensor.
std::vector<float> reference_read(const Tensor& t, const Dims& lo,
                                  const Dims& extent) {
  const Shape shape(t.dims());
  const Dims bounds = shape.blocked_dims();
  const Dims zero = Dims::filled(bounds.rank(), 0);
  const i64 points = extent.product();
  std::vector<float> out(static_cast<size_t>(shape.channels() * points));
  const std::vector<Dims> rels = positions(extent);
  for (i64 c = 0; c < shape.channels(); ++c) {
    for (size_t i = 0; i < rels.size(); ++i) {
      const Dims abs = shifted(rels[i], lo);
      out[static_cast<size_t>(c * points) + i] =
          inside(abs, zero, bounds) ? t.at(canonical_index(abs, c)) : 0.0f;
    }
  }
  return out;
}

/// Per-element reference scatter into a canonical tensor.
void reference_write(Tensor& t, const Dims& lo, const Dims& extent,
                     const std::vector<float>& scratch) {
  const Shape shape(t.dims());
  const Dims bounds = shape.blocked_dims();
  const Dims zero = Dims::filled(bounds.rank(), 0);
  const i64 points = extent.product();
  const std::vector<Dims> rels = positions(extent);
  for (i64 c = 0; c < shape.channels(); ++c) {
    for (size_t i = 0; i < rels.size(); ++i) {
      const Dims abs = shifted(rels[i], lo);
      if (inside(abs, zero, bounds)) {
        t.at(canonical_index(abs, c)) =
            scratch[static_cast<size_t>(c * points) + i];
      }
    }
  }
}

/// Per-element reference sub-window copy between dense windows.
std::vector<float> reference_extract(const std::vector<float>& src,
                                     const Dims& src_lo,
                                     const Dims& src_extent, i64 channels,
                                     const Dims& lo, const Dims& extent) {
  const i64 points = extent.product();
  const i64 src_points = src_extent.product();
  std::vector<float> out(static_cast<size_t>(channels * points));
  const std::vector<Dims> rels = positions(extent);
  for (i64 c = 0; c < channels; ++c) {
    for (size_t i = 0; i < rels.size(); ++i) {
      const Dims abs = shifted(rels[i], lo);
      float v = 0.0f;
      if (inside(abs, src_lo, src_extent)) {
        Dims src_rel = abs;
        for (int d = 0; d < abs.rank(); ++d) src_rel[d] -= src_lo[d];
        v = src[static_cast<size_t>(c * src_points +
                                    src_extent.linear(src_rel))];
      }
      out[static_cast<size_t>(c * points) + i] = v;
    }
  }
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elements()) * sizeof(float)) == 0;
}

/// One seeded case: an activation of blocked rank 3 or 4 with sizes that
/// are mostly not brick multiples, a brick extent, and a window that may
/// start below zero and spill past the far edge.
struct Case {
  Shape shape;
  Dims brick;
  Dims lo;
  Dims extent;
  bool shuffled = false;
  std::string label;
};

Case draw_case(Rng& rng, int it) {
  Case k;
  const int blocked_rank = 3 + static_cast<int>(rng.next_below(2));
  Dims dims;
  dims.push_back(1 + static_cast<i64>(rng.next_below(2)));  // batch
  dims.push_back(1 + static_cast<i64>(rng.next_below(3)));  // channels
  for (int d = 1; d < blocked_rank; ++d) {
    dims.push_back(1 + static_cast<i64>(rng.next_below(9)));
  }
  k.shape = Shape(dims);
  const Dims bounds = k.shape.blocked_dims();
  for (int d = 0; d < blocked_rank; ++d) {
    k.brick.push_back(1 + static_cast<i64>(rng.next_below(4)));
    k.lo.push_back(static_cast<i64>(rng.next_below(
                       static_cast<u64>(bounds[d] + 3))) -
                   3);
    k.extent.push_back(1 + static_cast<i64>(rng.next_below(
                               static_cast<u64>(bounds[d] + 4))));
  }
  k.shuffled = rng.next_below(2) == 0;
  k.label = "case " + std::to_string(it) + ": shape " + k.shape.str() +
            " brick " + k.brick.str() + " window lo " + k.lo.str() +
            " extent " + k.extent.str() +
            (k.shuffled ? " (shuffled map)" : "");
  return k;
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  t.fill_random(rng);
  return t;
}

std::vector<float> random_window(i64 channels, const Dims& extent, Rng& rng) {
  std::vector<float> w(static_cast<size_t>(channels * extent.product()));
  for (float& v : w) v = rng.next_float(-1.0f, 1.0f);
  return w;
}

constexpr int kCases = 200;

TEST(WindowCopy, CanonicalReadWriteMatchReference) {
  Rng rng(0x77ad0c0f);
  for (int it = 0; it < kCases; ++it) {
    const Case k = draw_case(rng, it);
    const Tensor t = random_tensor(k.shape, rng);
    const i64 channels = k.shape.channels();

    // Canary-filled scratch: a position the copy skips compares unequal.
    std::vector<float> got(
        static_cast<size_t>(channels * k.extent.product()), -7.0f);
    canonical_read_window(t, k.lo, k.extent, got);
    ASSERT_TRUE(same_bits(got, reference_read(t, k.lo, k.extent))) << k.label;

    const std::vector<float> scratch = random_window(channels, k.extent, rng);
    Tensor written = t;
    Tensor expected = t;
    canonical_write_window(written, k.lo, k.extent, scratch);
    reference_write(expected, k.lo, k.extent, scratch);
    ASSERT_TRUE(same_bits(written, expected)) << k.label;
  }
}

TEST(WindowCopy, BrickedReadWriteMatchReference) {
  Rng rng(0xb41c4ed);
  for (int it = 0; it < kCases; ++it) {
    const Case k = draw_case(rng, it);
    const Tensor t = random_tensor(k.shape, rng);
    const i64 channels = k.shape.channels();
    const Dims grid = BrickGrid(k.shape.blocked_dims(), k.brick).grid;
    const BrickMap map =
        k.shuffled ? BrickMap::shuffled(grid, rng) : BrickMap(grid);
    BrickedTensor bricked = BrickedTensor::from_canonical(t, k.brick, map);

    std::vector<float> got(
        static_cast<size_t>(channels * k.extent.product()), -7.0f);
    bricked.read_window(k.lo, k.extent, got);
    ASSERT_TRUE(same_bits(got, reference_read(t, k.lo, k.extent))) << k.label;

    const std::vector<float> scratch = random_window(channels, k.extent, rng);
    Tensor expected = t;
    bricked.write_window(k.lo, k.extent, scratch);
    reference_write(expected, k.lo, k.extent, scratch);
    ASSERT_TRUE(same_bits(bricked.to_canonical(), expected)) << k.label;
  }
}

TEST(WindowCopy, ExtractSubwindowMatchesReference) {
  Rng rng(0xe8c7ac7);
  for (int it = 0; it < kCases; ++it) {
    const Case k = draw_case(rng, it);
    const i64 channels = k.shape.channels();
    // The source is the drawn window; the sub-window overlaps it partly,
    // fully, or not at all.
    const std::vector<float> src = random_window(channels, k.extent, rng);
    Dims lo = k.lo;
    Dims extent = k.extent;
    for (int d = 0; d < lo.rank(); ++d) {
      lo[d] += static_cast<i64>(rng.next_below(
                   static_cast<u64>(k.extent[d] + 2))) -
               1;
      extent[d] = 1 + static_cast<i64>(
                          rng.next_below(static_cast<u64>(k.extent[d] + 1)));
    }
    std::vector<float> got(static_cast<size_t>(channels * extent.product()),
                           -7.0f);
    extract_subwindow(src, k.lo, k.extent, channels, lo, extent, got);
    ASSERT_TRUE(same_bits(
        got, reference_extract(src, k.lo, k.extent, channels, lo, extent)))
        << k.label << " sub-window lo " << lo.str() << " extent "
        << extent.str();
  }
}

// A tensor without spatial dims ([N, C]): the innermost blocked dim is the
// batch, so canonical rows are strided rather than contiguous.
TEST(WindowCopy, CanonicalBatchOnlyTensor) {
  Rng rng(0x5ca1a);
  const Tensor t = random_tensor(Shape{5, 3}, rng);
  for (i64 lo = -2; lo < 5; ++lo) {
    for (i64 extent = 1; extent <= 4; ++extent) {
      std::vector<float> got(static_cast<size_t>(3 * extent), -7.0f);
      canonical_read_window(t, Dims{lo}, Dims{extent}, got);
      ASSERT_TRUE(same_bits(got, reference_read(t, Dims{lo}, Dims{extent})))
          << "lo " << lo << " extent " << extent;
      const std::vector<float> scratch = random_window(3, Dims{extent}, rng);
      Tensor written = t;
      Tensor expected = t;
      canonical_write_window(written, Dims{lo}, Dims{extent}, scratch);
      reference_write(expected, Dims{lo}, Dims{extent}, scratch);
      ASSERT_TRUE(same_bits(written, expected))
          << "lo " << lo << " extent " << extent;
    }
  }
}

}  // namespace
}  // namespace brickdl
