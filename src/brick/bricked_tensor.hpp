// BrickedTensor: an activation stored in the brick data layout (§3.1,
// §3.3.4). The blocked dimensions (batch + spatial) are decomposed into
// fixed-size bricks; each brick packs all channels contiguously as
// [C, brick-blocked-extents...] row-major. Bricks are addressed through a
// BrickMap indirection, and halo data in neighboring bricks is reached via
// BrickInfo adjacency (built on demand by info()), exactly as Fig. 6 lays
// out.
#pragma once

#include "brick/brick_info.hpp"
#include "tensor/tensor.hpp"

namespace brickdl {

/// Non-owning view of a single brick's storage: channels × brick extents.
/// Overloads element access with in-brick indices (the paper's `Brick`
/// access interface).
class Brick {
 public:
  Brick(float* data, i64 channels, const Dims& extents)
      : data_(data), channels_(channels), extents_(extents) {}

  i64 channels() const { return channels_; }
  const Dims& extents() const { return extents_; }
  i64 elements_per_channel() const { return extents_.product(); }

  float& operator()(i64 channel, const Dims& in_brick) {
    return data_[offset(channel, in_brick)];
  }
  float operator()(i64 channel, const Dims& in_brick) const {
    return data_[offset(channel, in_brick)];
  }

  float* channel_data(i64 channel) {
    return data_ + channel * elements_per_channel();
  }
  const float* channel_data(i64 channel) const {
    return data_ + channel * elements_per_channel();
  }

 private:
  i64 offset(i64 channel, const Dims& in_brick) const {
    BDL_CHECK(channel >= 0 && channel < channels_);
    return channel * elements_per_channel() + extents_.linear(in_brick);
  }

  float* data_;
  i64 channels_;
  Dims extents_;
};

class BrickedTensor {
 public:
  /// Identity brick map, zero-filled.
  BrickedTensor(Shape shape, const Dims& brick_extents);
  /// Custom placement (e.g. BrickMap::shuffled) — grid must match.
  BrickedTensor(Shape shape, const Dims& brick_extents, BrickMap map);
  /// Identity brick map over adopted `storage` (at least
  /// num_bricks() × brick_storage_elements() floats), not cleared.
  BrickedTensor(Shape shape, const Dims& brick_extents, Storage storage);

  const Shape& shape() const { return shape_; }
  const BrickGrid& grid() const { return grid_; }
  const BrickMap& map() const { return map_; }
  /// The neighbor adjacency table (Fig. 6c), built on each call: no
  /// executor needs it, so tensors do not carry one.
  BrickInfo info() const { return BrickInfo(grid_, map_); }
  i64 channels() const { return shape_.channels(); }
  i64 num_bricks() const { return grid_.num_bricks(); }
  /// Elements per brick including all channels.
  i64 brick_storage_elements() const {
    return channels() * grid_.brick_elements();
  }
  i64 storage_bytes() const {
    return num_bricks() * brick_storage_elements() *
           static_cast<i64>(sizeof(float));
  }
  /// Give up the storage (the tensor must not be used afterwards).
  Storage take_storage() { return std::move(storage_); }

  Brick brick(i64 physical);
  const float* brick_data(i64 physical) const;
  float* brick_data(i64 physical);

  /// Element access by canonical activation index [N, C, spatial...].
  float& at(const Dims& index);
  float at(const Dims& index) const;

  void fill(float value);

  /// Layout conversions. Boundary bricks of non-multiple layer sizes are
  /// zero-masked on import and the mask is skipped on export.
  static BrickedTensor from_canonical(const Tensor& src, const Dims& brick_extents);
  static BrickedTensor from_canonical(const Tensor& src, const Dims& brick_extents,
                                      BrickMap map);
  Tensor to_canonical() const;

  /// Copy a blocked-space window (possibly spanning several bricks and
  /// extending past the layer boundary) into dense scratch laid out as
  /// [C, extent...] row-major. Out-of-bounds positions read as zero. This is
  /// the halo-gather primitive the padded-bricks executor builds on.
  void read_window(const Dims& lo, const Dims& extent,
                   std::span<float> scratch) const;
  /// Inverse of read_window: scatter dense scratch into the bricks,
  /// ignoring out-of-bounds positions.
  void write_window(const Dims& lo, const Dims& extent,
                    std::span<const float> scratch);

 private:
  std::pair<i64, i64> locate(const Dims& index) const;  // (physical, offset)

  Shape shape_;
  BrickGrid grid_;
  BrickMap map_;
  Storage storage_;
};

}  // namespace brickdl
