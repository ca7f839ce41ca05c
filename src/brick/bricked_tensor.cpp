#include "brick/bricked_tensor.hpp"

#include <algorithm>

#include "util/odometer.hpp"

namespace brickdl {
namespace {

/// Splits an in-bounds row segment of blocked space into runs that stay
/// inside one brick, resolving each brick through the map once per run.
class BrickRuns {
 public:
  BrickRuns(const BrickGrid& grid, const BrickMap& map)
      : map_(map), last_(grid.rank() - 1) {
    row_major_strides(grid.brick, brick_stride_);
    row_major_strides(grid.grid, grid_stride_);
    for (int d = 0; d <= last_; ++d) brick_[d] = grid.brick[d];
  }

  /// fn(x, physical, offset, length) for each run of [x_lo, x_hi) on the
  /// row `pos` (innermost entry unused): the run starts at innermost
  /// coordinate x, at in-brick offset `offset` (channel 0) of brick
  /// `physical`.
  template <typename Fn>
  void visit(const i64* pos, i64 x_lo, i64 x_hi, Fn&& fn) const {
    if (x_lo >= x_hi) return;
    i64 logical_row = 0;
    i64 offset_row = 0;
    for (int d = 0; d < last_; ++d) {
      const i64 g = pos[d] / brick_[d];
      logical_row += g * grid_stride_[d];
      offset_row += (pos[d] - g * brick_[d]) * brick_stride_[d];
    }
    const i64 bx = brick_[last_];
    for (i64 x = x_lo; x < x_hi;) {
      const i64 g = x / bx;
      const i64 end = std::min(x_hi, (g + 1) * bx);
      fn(x, map_.physical(logical_row + g), offset_row + (x - g * bx),
         end - x);
      x = end;
    }
  }

 private:
  const BrickMap& map_;
  int last_;
  i64 brick_[Dims::kMaxRank];
  i64 brick_stride_[Dims::kMaxRank];
  i64 grid_stride_[Dims::kMaxRank];
};

}  // namespace

BrickedTensor::BrickedTensor(Shape shape, const Dims& brick_extents)
    : BrickedTensor(shape, brick_extents,
                    BrickMap(BrickGrid(shape.blocked_dims(), brick_extents).grid)) {}

BrickedTensor::BrickedTensor(Shape shape, const Dims& brick_extents, BrickMap map)
    : shape_(shape),
      grid_(shape.blocked_dims(), brick_extents),
      map_(std::move(map)) {
  BDL_CHECK_MSG(map_.grid() == grid_.grid,
                "brick map grid " << map_.grid().str()
                                  << " does not match decomposition grid "
                                  << grid_.grid.str());
  storage_ = Storage::zeros(
      static_cast<size_t>(num_bricks() * brick_storage_elements()));
}

BrickedTensor::BrickedTensor(Shape shape, const Dims& brick_extents,
                             Storage storage)
    : shape_(shape),
      grid_(shape.blocked_dims(), brick_extents),
      map_(grid_.grid),
      storage_(std::move(storage)) {
  BDL_CHECK_MSG(static_cast<i64>(storage_.size()) >=
                    num_bricks() * brick_storage_elements(),
                "storage of " << storage_.size() << " floats cannot hold "
                              << num_bricks() << " bricks of "
                              << brick_storage_elements());
}

Brick BrickedTensor::brick(i64 physical) {
  return Brick(brick_data(physical), channels(), grid_.brick);
}

const float* BrickedTensor::brick_data(i64 physical) const {
  BDL_CHECK(physical >= 0 && physical < num_bricks());
  return storage_.data() + physical * brick_storage_elements();
}

float* BrickedTensor::brick_data(i64 physical) {
  BDL_CHECK(physical >= 0 && physical < num_bricks());
  return storage_.data() + physical * brick_storage_elements();
}

std::pair<i64, i64> BrickedTensor::locate(const Dims& index) const {
  BDL_CHECK(index.rank() == shape_.rank());
  const i64 channel = index[1];
  BDL_CHECK(channel >= 0 && channel < channels());
  Dims blocked = Dims::filled(grid_.rank(), 0);
  blocked[0] = index[0];
  for (int i = 0; i < shape_.spatial_rank(); ++i) blocked[i + 1] = index[2 + i];

  const Dims g = grid_.brick_of(blocked);
  const Dims origin = grid_.brick_origin(g);
  Dims in_brick = blocked;
  for (int i = 0; i < grid_.rank(); ++i) in_brick[i] -= origin[i];

  const i64 physical = map_.physical_at(g);
  const i64 offset =
      channel * grid_.brick_elements() + grid_.brick.linear(in_brick);
  return {physical, offset};
}

float& BrickedTensor::at(const Dims& index) {
  const auto [physical, offset] = locate(index);
  return storage_.data()[physical * brick_storage_elements() + offset];
}

float BrickedTensor::at(const Dims& index) const {
  const auto [physical, offset] = locate(index);
  return storage_.data()[physical * brick_storage_elements() + offset];
}

void BrickedTensor::fill(float value) {
  std::fill_n(storage_.data(), num_bricks() * brick_storage_elements(), value);
}

BrickedTensor BrickedTensor::from_canonical(const Tensor& src,
                                            const Dims& brick_extents) {
  const Shape shape(src.dims());
  return from_canonical(src, brick_extents,
                        BrickMap(BrickGrid(shape.blocked_dims(), brick_extents).grid));
}

BrickedTensor BrickedTensor::from_canonical(const Tensor& src,
                                            const Dims& brick_extents,
                                            BrickMap map) {
  const Shape shape(src.dims());
  BrickedTensor dst(shape, brick_extents, std::move(map));
  for_each_index(src.dims(), [&](const Dims& index) {
    dst.at(index) = src.at(index);
  });
  return dst;
}

Tensor BrickedTensor::to_canonical() const {
  Tensor dst(shape_);
  for_each_index(shape_.dims, [&](const Dims& index) {
    dst.at(index) = at(index);
  });
  return dst;
}

void BrickedTensor::read_window(const Dims& lo, const Dims& extent,
                                std::span<float> scratch) const {
  BDL_CHECK(lo.rank() == grid_.rank() && extent.rank() == grid_.rank());
  const i64 needed = channels() * extent.product();
  BDL_CHECK_MSG(static_cast<i64>(scratch.size()) >= needed,
                "scratch too small: " << scratch.size() << " < " << needed);
  const i64 per_channel = extent.product();
  const i64 brick_elements = grid_.brick_elements();
  const int last = extent.rank() - 1;
  const i64 width = extent[last];
  const BrickRuns runs(grid_, map_);
  for_each_window_row(
      lo, extent, Dims::filled(grid_.rank(), 0), grid_.blocked,
      [&](i64 row, const i64* pos, i64 x_lo, i64 x_hi) {
        const i64 left = x_lo - lo[last];
        const i64 right = lo[last] + width - x_hi;
        for (i64 c = 0; c < channels(); ++c) {
          float* dst = scratch.data() + c * per_channel + row;
          zero_run(dst, left);
          zero_run(dst + width - right, right);
        }
        runs.visit(pos, x_lo, x_hi, [&](i64 x, i64 physical, i64 offset,
                                        i64 length) {
          const float* src = brick_data(physical) + offset;
          float* dst = scratch.data() + row + (x - lo[last]);
          for (i64 c = 0; c < channels(); ++c) {
            copy_run(src + c * brick_elements, length, dst + c * per_channel);
          }
        });
      });
}

void BrickedTensor::write_window(const Dims& lo, const Dims& extent,
                                 std::span<const float> scratch) {
  BDL_CHECK(lo.rank() == grid_.rank() && extent.rank() == grid_.rank());
  const i64 needed = channels() * extent.product();
  BDL_CHECK_MSG(static_cast<i64>(scratch.size()) >= needed,
                "scratch too small: " << scratch.size() << " < " << needed);
  const i64 per_channel = extent.product();
  const i64 brick_elements = grid_.brick_elements();
  const int last = extent.rank() - 1;
  const BrickRuns runs(grid_, map_);
  for_each_window_row(
      lo, extent, Dims::filled(grid_.rank(), 0), grid_.blocked,
      [&](i64 row, const i64* pos, i64 x_lo, i64 x_hi) {
        runs.visit(pos, x_lo, x_hi, [&](i64 x, i64 physical, i64 offset,
                                        i64 length) {
          float* dst = brick_data(physical) + offset;
          const float* src = scratch.data() + row + (x - lo[last]);
          for (i64 c = 0; c < channels(); ++c) {
            copy_run(src + c * per_channel, length, dst + c * brick_elements);
          }
        });
      });
}

}  // namespace brickdl
