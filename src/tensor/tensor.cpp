#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace brickdl {

Tensor::Tensor(Shape shape) : Tensor(shape.dims) {}

Tensor::Tensor(Dims dims) : dims_(dims) {
  BDL_CHECK_MSG(dims.rank() > 0, "tensor must have rank >= 1");
  for (int i = 0; i < dims.rank(); ++i) {
    BDL_CHECK_MSG(dims[i] > 0, "tensor extent must be positive, got " << dims.str());
  }
  data_ = Storage::zeros(size());
}

Tensor::Tensor(Dims dims, Storage storage)
    : dims_(dims), data_(std::move(storage)) {
  BDL_CHECK_MSG(dims.rank() > 0 && data_.size() >= size(),
                "storage of " << data_.size() << " floats cannot hold "
                              << dims.str());
}

Tensor::Tensor(const Tensor& other)
    : dims_(other.dims_), data_(Storage::uninitialized(other.size())) {
  std::copy_n(other.data(), size(), data());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (data_.size() < other.size()) data_ = Storage::uninitialized(other.size());
  dims_ = other.dims_;
  std::copy_n(other.data(), size(), data());
  return *this;
}

void Tensor::fill(float value) {
  std::fill_n(data(), size(), value);
}

void Tensor::fill_random(Rng& rng, float lo, float hi) {
  for (float& v : span()) v = rng.next_float(lo, hi);
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  BDL_CHECK_MSG(a.dims() == b.dims(),
                "shape mismatch: " << a.dims().str() << " vs " << b.dims().str());
  double worst = 0.0;
  for (i64 i = 0; i < a.elements(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a.flat(i)) - b.flat(i)));
  }
  return worst;
}

bool allclose(const Tensor& a, const Tensor& b, double tol) {
  return max_abs_diff(a, b) <= tol;
}

}  // namespace brickdl
