// Window copies between canonical activations and dense window scratch.
//
// A *window* is a box [lo, lo+extent) of an activation's blocked dims
// [N, spatial...]. It may extend past the tensor (halo) and is held densely
// as [C, extent...] row-major — the layout every region kernel reads and
// writes. The copies run row by row along the innermost dim: each row's
// bounds are resolved once, then one contiguous run is copied per channel,
// and positions outside the source are zero-filled.
// BrickedTensor::read_window / write_window are the bricked-layout
// counterparts.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace brickdl {

/// Gather the window [lo, lo+extent) of the canonical activation `t`
/// ([N, C, spatial...]) into `scratch`, zero-filling positions outside `t`.
void canonical_read_window(const Tensor& t, const Dims& lo, const Dims& extent,
                           std::span<float> scratch);

/// Inverse of canonical_read_window: scatter `scratch` into `t`, ignoring
/// positions outside it.
void canonical_write_window(Tensor& t, const Dims& lo, const Dims& extent,
                            std::span<const float> scratch);

/// Copy the window [lo, lo+extent) out of the dense window `src`
/// ([channels, src_extent...] at src_lo) into `dst` ([channels, extent...]);
/// positions outside `src` read as zero.
void extract_subwindow(std::span<const float> src, const Dims& src_lo,
                       const Dims& src_extent, i64 channels, const Dims& lo,
                       const Dims& extent, std::span<float> dst);

}  // namespace brickdl
