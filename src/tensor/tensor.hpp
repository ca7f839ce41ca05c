// Dense canonical (row-major) tensor of floats. This is the layout the
// paper's baselines use and the source/target of brick layout conversions.
#pragma once

#include <span>

#include "tensor/shape.hpp"
#include "tensor/storage.hpp"
#include "util/rng.hpp"

namespace brickdl {

class Tensor {
 public:
  Tensor() = default;
  /// Zero-filled.
  explicit Tensor(Shape shape);
  /// Arbitrary-rank storage (weights, bias); dims interpreted by the op.
  explicit Tensor(Dims dims);
  /// Adopt `storage` (at least elements() floats) without clearing it.
  Tensor(Dims dims, Storage storage);

  /// Copies hold exactly elements() floats; assignment reuses this tensor's
  /// storage when it is large enough.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// Give up the storage (the tensor is left empty).
  Storage take_storage() { dims_ = Dims{}; return std::move(data_); }

  const Dims& dims() const { return dims_; }
  i64 elements() const { return dims_.product(); }
  i64 bytes() const { return elements() * static_cast<i64>(sizeof(float)); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), size()}; }
  std::span<const float> span() const { return {data_.data(), size()}; }

  float& at(const Dims& index) { return data()[static_cast<size_t>(dims_.linear(index))]; }
  float at(const Dims& index) const { return data()[static_cast<size_t>(dims_.linear(index))]; }
  float& flat(i64 i) { return data()[static_cast<size_t>(i)]; }
  float flat(i64 i) const { return data()[static_cast<size_t>(i)]; }

  void fill(float value);
  void fill_random(Rng& rng, float lo = -1.0f, float hi = 1.0f);

 private:
  size_t size() const {
    return dims_.rank() == 0 ? 0 : static_cast<size_t>(elements());
  }

  Dims dims_;
  Storage data_;
};

/// Largest absolute elementwise difference; 0 for empty tensors.
/// Requires identical dims.
double max_abs_diff(const Tensor& a, const Tensor& b);

/// True if tensors match within `tol` everywhere.
bool allclose(const Tensor& a, const Tensor& b, double tol = 1e-4);

}  // namespace brickdl
