#include "core/backend.hpp"

#include <algorithm>

#include "core/fault_hooks.hpp"
#include "tensor/window.hpp"
#include "util/odometer.hpp"
#include "util/status.hpp"

namespace brickdl {
namespace {

bool covers(const ScratchSlot& slot, const Dims& lo, const Dims& extent) {
  for (int d = 0; d < lo.rank(); ++d) {
    if (slot.lo[d] > lo[d]) return false;
    if (slot.lo[d] + slot.extent[d] < lo[d] + extent[d]) return false;
  }
  return true;
}

bool needs_exact_window(OpKind kind) {
  switch (kind) {
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kSoftmax:
    case OpKind::kBatchNorm:
    case OpKind::kAdd:
    case OpKind::kConcat:
      return true;
    default:
      return false;
  }
}

}  // namespace

NumericBackend::NumericBackend(const Graph& graph, WeightStore& weights,
                               int workers)
    : Backend(graph),
      weights_(weights),
      node_weights_(static_cast<size_t>(graph.num_nodes())),
      workers_(workers) {
  BDL_CHECK(workers >= 1);
  slots_.resize(static_cast<size_t>(workers));
  region_inputs_.resize(static_cast<size_t>(workers));
  arenas_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) arenas_.emplace_back();
}

void NumericBackend::invocation_begin(int worker) {
  BDL_CHECK(worker >= 0 && worker < workers_);
  // All of the previous invocation's slots are dead by contract (a brick's
  // load/compute/store/free sequence completes before the worker's next
  // invocation), so drop them wholesale — including slots abandoned live by
  // a failed brick — and rewind the arena backing their storage.
  for (ScratchSlot& slot : slots_[static_cast<size_t>(worker)]) {
    slot.live = false;
    slot.data = {};
  }
  arenas_[static_cast<size_t>(worker)].reset();
}

TensorId NumericBackend::register_tensor(const Shape& shape, Layout layout,
                                         const Dims& brick_extent,
                                         const std::string& name) {
  (void)name;
  Buffer buf;
  buf.shape = shape;
  buf.layout = layout;
  // Recycled or fresh, the block is not cleared: executors write every
  // position they later read (DESIGN.md §9.7).
  i64 floats = shape.elements();
  if (layout == Layout::kBricked) {
    const BrickGrid grid(shape.blocked_dims(), brick_extent);
    floats = grid.num_bricks() * grid.brick_elements() * shape.channels();
  }
  Storage block = free_.take(static_cast<size_t>(floats));
  buf.bytes = block.bytes();
  if (layout != Layout::kBricked) {
    buf.canonical = std::make_unique<Tensor>(shape.dims, std::move(block));
  } else {
    buf.bricked = std::make_unique<BrickedTensor>(shape, brick_extent,
                                                  std::move(block));
  }
  live_bytes_ += buf.bytes;
  peak_live_bytes_ = std::max(peak_live_bytes_, live_bytes_);
  buffers_.push_back(std::move(buf));
  return static_cast<TensorId>(buffers_.size() - 1);
}

void NumericBackend::release_tensor(TensorId id) {
  BDL_CHECK(id >= 0 && id < static_cast<TensorId>(buffers_.size()));
  Buffer& buf = buffers_[static_cast<size_t>(id)];
  if (buf.canonical) {
    free_.give(buf.canonical->take_storage());
  } else if (buf.bricked) {
    free_.give(buf.bricked->take_storage());
  }
  buf.canonical.reset();
  buf.bricked.reset();
  live_bytes_ -= buf.bytes;
  buf.bytes = 0;
}

const NumericBackend::Buffer& NumericBackend::live_buffer(TensorId id) const {
  BDL_CHECK(id >= 0 && id < static_cast<TensorId>(buffers_.size()));
  const Buffer& buf = buffers_[static_cast<size_t>(id)];
  BDL_CHECK_MSG(buf.canonical || buf.bricked,
                "tensor " << id << " was used after its release");
  return buf;
}

SlotId NumericBackend::new_slot(int worker) {
  auto& pool = slots_[static_cast<size_t>(worker)];
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!pool[i].live) return static_cast<SlotId>(i);
  }
  pool.emplace_back();
  return static_cast<SlotId>(pool.size() - 1);
}

ScratchSlot& NumericBackend::slot_ref(int worker, SlotId slot) {
  BDL_CHECK(worker >= 0 && worker < workers_);
  auto& pool = slots_[static_cast<size_t>(worker)];
  BDL_CHECK(slot >= 0 && slot < static_cast<SlotId>(pool.size()));
  return pool[static_cast<size_t>(slot)];
}

SlotId NumericBackend::load_window(int worker, TensorId src, const Dims& lo,
                                   const Dims& extent) {
  const Buffer& buf = live_buffer(src);
  const SlotId id = new_slot(worker);
  ScratchSlot& slot = slot_ref(worker, id);
  slot.lo = lo;
  slot.extent = extent;
  slot.channels = buf.shape.channels();
  slot.live = true;
  // Both window reads write every element (zeros outside the tensor).
  slot.data = arenas_[static_cast<size_t>(worker)].alloc(
      static_cast<size_t>(slot.channels * extent.product()));
  if (buf.layout != Layout::kBricked) {
    canonical_read_window(*buf.canonical, lo, extent, slot.data);
  } else {
    buf.bricked->read_window(lo, extent, slot.data);
  }
  return id;
}

void NumericBackend::store_window(int worker, SlotId slot_id, TensorId dst,
                                  const Dims& lo, const Dims& extent) {
  const Buffer& buf = live_buffer(dst);
  ScratchSlot& slot = slot_ref(worker, slot_id);
  BDL_CHECK_MSG(slot.live && slot.lo == lo && slot.extent == extent,
                "store window must match the slot geometry");
  if (buf.layout != Layout::kBricked) {
    canonical_write_window(*buf.canonical, lo, extent, slot.data);
  } else {
    buf.bricked->write_window(lo, extent, slot.data);
  }
  slot.live = false;
  slot.data = {};  // arena storage is reclaimed at the next invocation_begin
}

void NumericBackend::free_slot(int worker, SlotId slot_id) {
  ScratchSlot& slot = slot_ref(worker, slot_id);
  BDL_CHECK(slot.live);
  slot.live = false;
  slot.data = {};
}

std::span<const float> NumericBackend::node_weights(int node_id) {
  const Node& node = graph_.node(node_id);
  const i64 elements = node.weight_elements();
  if (elements == 0) return {};
  // Racing first lookups store the same pointer: the store keeps one
  // tensor per node.
  std::atomic<const float*>& cached =
      node_weights_[static_cast<size_t>(node_id)];
  const float* data = cached.load(std::memory_order_acquire);
  if (data == nullptr) {
    data = weights_.weights(node).data();
    cached.store(data, std::memory_order_release);
  }
  return {data, static_cast<size_t>(elements)};
}

SlotId NumericBackend::compute(int worker, int node_id,
                               const std::vector<SlotId>& inputs,
                               const Dims& out_lo, const Dims& out_extent,
                               bool mask_to_bounds) {
  const Node& node = graph_.node(node_id);
  if (FaultHooks* hooks = fault_hooks()) {
    if (!hooks->on_kernel(node_id, worker)) {
      throw StatusError(Status(StatusCode::kKernelFailure,
                               "injected kernel failure in '" + node.name +
                                   "'"));
    }
  }
  BDL_CHECK(inputs.size() == node.inputs.size());

  // Validate coverage: each slot must contain the window this region needs.
  Dims need_lo, need_extent;
  input_window_blocked(node, out_lo, out_extent, &need_lo, &need_extent);

  Arena& arena = arenas_[static_cast<size_t>(worker)];
  std::vector<RegionInput>& region_inputs =
      region_inputs_[static_cast<size_t>(worker)];
  region_inputs.clear();
  for (size_t i = 0; i < inputs.size(); ++i) {
    ScratchSlot& slot = slot_ref(worker, inputs[i]);
    BDL_CHECK_MSG(slot.live, "computing from a freed slot");
    BDL_CHECK_MSG(covers(slot, need_lo, need_extent),
                  "slot window does not cover the required input window for "
                      << node.name);
    RegionInput ri{slot.data, slot.lo, slot.extent, slot.channels};
    if (needs_exact_window(node.kind) &&
        !(slot.lo == out_lo && slot.extent == out_extent)) {
      // Pointwise ops read a congruent copy carved from the arena.
      const std::span<float> exact = arena.alloc(
          static_cast<size_t>(slot.channels * out_extent.product()));
      extract_subwindow(slot.data, slot.lo, slot.extent, slot.channels,
                        out_lo, out_extent, exact);
      ri = RegionInput{exact, out_lo, out_extent, slot.channels};
    }
    region_inputs.push_back(ri);
  }

  const SlotId out_id = new_slot(worker);
  ScratchSlot& out = slot_ref(worker, out_id);
  out.lo = out_lo;
  out.extent = out_extent;
  out.channels = node.out_shape.channels();
  out.live = true;
  out.data = arena.alloc_zeroed(
      static_cast<size_t>(out.channels * out_extent.product()));
  compute_region(node, region_inputs, node_weights(node_id), out_lo,
                 out_extent, out.data);
  if (mask_to_bounds) {
    mask_region_outside(out_lo, out_extent, out.channels,
                        node.out_shape.blocked_dims(), out.data);
  }
  if (FaultHooks* hooks = fault_hooks()) {
    hooks->on_kernel_output(node_id, worker, out.data.data(),
                            static_cast<i64>(out.data.size()));
  }
  return out_id;
}

void NumericBackend::execute_global(int worker, int node_id,
                                    const std::vector<TensorId>& inputs,
                                    TensorId out) {
  const Node& node = graph_.node(node_id);
  if (FaultHooks* hooks = fault_hooks()) {
    if (!hooks->on_kernel(node_id, worker)) {
      throw StatusError(Status(StatusCode::kKernelFailure,
                               "injected kernel failure in '" + node.name +
                                   "'"));
    }
  }
  std::vector<Tensor> in_tensors;
  std::vector<const Tensor*> in_ptrs;
  in_tensors.reserve(inputs.size());
  for (TensorId id : inputs) in_tensors.push_back(read(id));
  for (const Tensor& t : in_tensors) in_ptrs.push_back(&t);
  bind(out, execute_node_full(graph_, node, in_ptrs, weights_));
}

void NumericBackend::bind(TensorId id, const Tensor& data) {
  const Buffer& buf = live_buffer(id);
  BDL_CHECK(buf.shape.dims == data.dims());
  // In place: the tensor keeps the storage block it holds.
  if (buf.layout != Layout::kBricked) {
    *buf.canonical = data;
  } else {
    for_each_index(data.dims(), [&](const Dims& index) {
      buf.bricked->at(index) = data.at(index);
    });
  }
}

Tensor NumericBackend::read(TensorId id) const {
  const Buffer& buf = live_buffer(id);
  if (buf.layout != Layout::kBricked) return *buf.canonical;
  return buf.bricked->to_canonical();
}

}  // namespace brickdl
