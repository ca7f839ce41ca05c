#include <algorithm>

#include "core/backend.hpp"
#include "core/fault_hooks.hpp"
#include "util/odometer.hpp"
#include "util/status.hpp"

namespace brickdl {
namespace {

constexpr i64 kFloatBytes = static_cast<i64>(sizeof(float));

/// Emit the access stream of a blocked-space window over a canonical
/// [N, C, spatial...] tensor: one run per (batch, channel, outer spatial row),
/// contiguous along the innermost spatial dimension, clipped to bounds
/// (out-of-bounds positions are zero-filled and touch no memory).
void emit_canonical(MemoryHierarchySim::Batch& batch, u64 base,
                    const Shape& shape, const Dims& lo, const Dims& extent,
                    bool write) {
  const Dims bounds = shape.blocked_dims();
  const int rank = bounds.rank();
  const i64 channels = shape.channels();

  // Clip the window per dimension.
  Dims clo = lo, cext = extent;
  for (int d = 0; d < rank; ++d) {
    const i64 a = std::max<i64>(lo[d], 0);
    const i64 b = std::min<i64>(lo[d] + extent[d], bounds[d]);
    if (b <= a) return;
    clo[d] = a;
    cext[d] = b - a;
  }

  // Outer dims: everything except the innermost spatial dim.
  Dims outer;
  for (int d = 0; d + 1 < rank; ++d) outer.push_back(cext[d]);
  const i64 row_len = cext[rank - 1];
  const i64 spatial_vol = shape.spatial_dims().product();
  // Strides of canonical [N, C, sp...] in elements.
  Dims strides = Dims::filled(rank, 1);  // blocked-dim strides (batch, sp...)
  i64 acc = 1;
  for (int d = rank - 1; d >= 1; --d) {
    strides[d] = acc;
    acc *= shape.spatial(d - 1);
  }
  strides[0] = channels * spatial_vol;

  for_each_index(outer.rank() ? outer : Dims{1}, [&](const Dims& rel) {
    i64 offset_blocked = clo[rank - 1];  // innermost start
    for (int d = 0; d + 1 < rank; ++d) {
      offset_blocked += (clo[d] + (outer.rank() ? rel[d] : 0)) * strides[d];
    }
    // offset_blocked covers batch (stride jumps over channels) + spatial.
    // Channel c adds c * spatial_vol.
    for (i64 c = 0; c < channels; ++c) {
      const u64 addr = base + static_cast<u64>((offset_blocked +
                                                c * spatial_vol) *
                                               kFloatBytes);
      // Runs are short (a few lines); prefetch the next channel's run start
      // so its set metadata is in flight while this run is simulated.
      if (c + 1 < channels) {
        batch.prefetch(addr + static_cast<u64>(spatial_vol * kFloatBytes));
      }
      batch.access(addr, row_len * kFloatBytes, write);
    }
  });
}

/// Emit the access stream of a window over a bricked tensor: for every
/// overlapped brick and channel, one run per row of the intersection,
/// contiguous in the brick's internal row-major storage.
void emit_bricked(MemoryHierarchySim::Batch& batch, u64 base, u64 line_bytes,
                  const BrickGrid& grid, i64 channels, i64 brick_storage_floats,
                  const Dims& lo, const Dims& extent, bool write) {
  const int rank = grid.rank();

  Dims clo = lo, cext = extent;
  for (int d = 0; d < rank; ++d) {
    const i64 a = std::max<i64>(lo[d], 0);
    const i64 b = std::min<i64>(lo[d] + extent[d], grid.blocked[d]);
    if (b <= a) return;
    clo[d] = a;
    cext[d] = b - a;
  }

  // Range of brick grid coordinates overlapped per dim.
  Dims g_lo = clo, g_cnt = cext;
  for (int d = 0; d < rank; ++d) {
    g_lo[d] = clo[d] / grid.brick[d];
    g_cnt[d] = (clo[d] + cext[d] - 1) / grid.brick[d] - g_lo[d] + 1;
  }

  const i64 brick_elems = grid.brick_elements();
  // Identity map: physical == logical (merged executors use identity maps;
  // shuffled maps affect placement, which the guard-banded allocator already
  // makes address-distinct per brick).
  for_each_index(g_cnt, [&](const Dims& g_rel) {
    Dims g = g_rel;
    for (int d = 0; d < rank; ++d) g[d] += g_lo[d];
    const i64 physical = grid.grid.linear(g);
    const Dims origin = grid.brick_origin(g);
    // Intersection of the clipped window with this brick, brick-relative.
    Dims ilo = clo, iext = cext;
    bool empty = false;
    for (int d = 0; d < rank; ++d) {
      const i64 a = std::max(clo[d], origin[d]);
      const i64 b = std::min(clo[d] + cext[d], origin[d] + grid.brick[d]);
      if (b <= a) {
        empty = true;
        break;
      }
      ilo[d] = a - origin[d];
      iext[d] = b - a;
    }
    if (empty) return;

    const bool full_rows = iext[rank - 1] == grid.brick[rank - 1];
    Dims outer;
    for (int d = 0; d + 1 < rank; ++d) outer.push_back(iext[d]);
    const u64 brick_base =
        base + static_cast<u64>(physical * brick_storage_floats * kFloatBytes);
    const bool whole_brick = full_rows && iext == grid.brick;
    if (whole_brick &&
        static_cast<u64>(brick_elems * kFloatBytes) % line_bytes == 0 &&
        brick_base % line_bytes == 0) {
      // Consecutive channels of one brick are address-contiguous, and with
      // line-aligned per-channel blocks the merged run touches the identical
      // line sequence (same lines, same order, same full-line write
      // coverage) as the per-channel runs below — so the transaction
      // counters are unchanged while the simulator call count drops by a
      // factor of `channels`.
      batch.access(brick_base, channels * brick_elems * kFloatBytes, write);
      return;
    }
    for (i64 c = 0; c < channels; ++c) {
      const u64 chan_base =
          brick_base + static_cast<u64>(c * brick_elems * kFloatBytes);
      if (whole_brick) {
        // Whole brick channel block: one contiguous run (unaligned case).
        if (c + 1 < channels) {
          batch.prefetch(chan_base +
                         static_cast<u64>(brick_elems * kFloatBytes));
        }
        batch.access(chan_base, brick_elems * kFloatBytes, write);
        continue;
      }
      // Successive rows step by the brick's innermost extent in storage; the
      // guess overshoots at band edges, where the stray prefetch is harmless
      // (hints never change counters).
      const u64 row_stride_bytes =
          static_cast<u64>(grid.brick[rank - 1] * kFloatBytes);
      for_each_index(outer.rank() ? outer : Dims{1}, [&](const Dims& rel) {
        Dims in_brick = ilo;
        for (int d = 0; d + 1 < rank; ++d) {
          in_brick[d] = ilo[d] + (outer.rank() ? rel[d] : 0);
        }
        in_brick[rank - 1] = ilo[rank - 1];
        const i64 off = grid.brick.linear(in_brick);
        const u64 addr = chan_base + static_cast<u64>(off * kFloatBytes);
        batch.prefetch(addr + row_stride_bytes);
        batch.access(addr, iext[rank - 1] * kFloatBytes, write);
      });
    }
  });
}

}  // namespace

ModelBackend::ModelBackend(const Graph& graph, MemoryHierarchySim& sim)
    : Backend(graph), sim_(sim) {
  weight_addr_.assign(static_cast<size_t>(graph.num_nodes()), 0);
  slots_.resize(static_cast<size_t>(sim.num_workers()));
}

TensorId ModelBackend::register_tensor(const Shape& shape, Layout layout,
                                       const Dims& brick_extent,
                                       const std::string& name) {
  Buffer buf;
  buf.shape = shape;
  buf.layout = layout;
  if (layout == Layout::kOnChipScratch) {
    buf.bytes = 0;  // no address-space presence; traffic counted analytically
    buffers_.push_back(buf);
    return static_cast<TensorId>(buffers_.size() - 1);
  }
  if (layout == Layout::kBricked) {
    buf.grid = BrickGrid(shape.blocked_dims(), brick_extent);
    buf.brick_storage_floats = shape.channels() * buf.grid.brick_elements();
    buf.bytes =
        buf.grid.num_bricks() * buf.brick_storage_floats * kFloatBytes;
  } else {
    buf.bytes = shape.bytes();
  }
  buf.base = sim_.allocate(name, buf.bytes);
  buffers_.push_back(buf);
  return static_cast<TensorId>(buffers_.size() - 1);
}

void ModelBackend::invocation_begin(int worker) {
  sim_.invocation_begin(worker);
}

SlotId ModelBackend::new_slot(int worker) {
  auto& pool = slots_[static_cast<size_t>(worker)];
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!pool[i].live) return static_cast<SlotId>(i);
  }
  pool.emplace_back();
  return static_cast<SlotId>(pool.size() - 1);
}

ScratchSlot& ModelBackend::slot_ref(int worker, SlotId slot) {
  BDL_CHECK(worker >= 0 && worker < num_workers());
  auto& pool = slots_[static_cast<size_t>(worker)];
  BDL_CHECK(slot >= 0 && slot < static_cast<SlotId>(pool.size()));
  return pool[static_cast<size_t>(slot)];
}

void ModelBackend::emit_window(int worker, const Buffer& buf, const Dims& lo,
                               const Dims& extent, bool write) {
  if (buf.layout == Layout::kOnChipScratch) {
    // Clip to bounds, then count one L1+L2 transaction per line touched.
    const Dims bounds = buf.shape.blocked_dims();
    i64 points = 1;
    for (int d = 0; d < bounds.rank(); ++d) {
      const i64 a = std::max<i64>(lo[d], 0);
      const i64 b = std::min<i64>(lo[d] + extent[d], bounds[d]);
      if (b <= a) return;
      points *= b - a;
    }
    const i64 bytes = points * buf.shape.channels() * kFloatBytes;
    sim_.count_l2_resident_reads(ceil_div(bytes, sim_.params().line_bytes));
    (void)write;
    return;
  }
  // One lock acquisition for the whole window's run stream.
  MemoryHierarchySim::Batch batch(sim_, worker);
  if (buf.layout == Layout::kCanonical) {
    emit_canonical(batch, buf.base, buf.shape, lo, extent, write);
  } else {
    emit_bricked(batch, buf.base,
                 static_cast<u64>(sim_.params().line_bytes), buf.grid,
                 buf.shape.channels(), buf.brick_storage_floats, lo, extent,
                 write);
  }
}

SlotId ModelBackend::load_window(int worker, TensorId src, const Dims& lo,
                                 const Dims& extent) {
  BDL_CHECK(src >= 0 && src < static_cast<TensorId>(buffers_.size()));
  const Buffer& buf = buffers_[static_cast<size_t>(src)];
  emit_window(worker, buf, lo, extent, /*write=*/false);
  const SlotId id = new_slot(worker);
  ScratchSlot& slot = slot_ref(worker, id);
  slot.lo = lo;
  slot.extent = extent;
  slot.channels = buf.shape.channels();
  slot.live = true;
  return id;
}

void ModelBackend::store_window(int worker, SlotId slot_id, TensorId dst,
                                const Dims& lo, const Dims& extent) {
  BDL_CHECK(dst >= 0 && dst < static_cast<TensorId>(buffers_.size()));
  ScratchSlot& slot = slot_ref(worker, slot_id);
  BDL_CHECK_MSG(slot.live && slot.lo == lo && slot.extent == extent,
                "store window must match the slot geometry");
  emit_window(worker, buffers_[static_cast<size_t>(dst)], lo, extent,
              /*write=*/true);
  slot.live = false;
}

void ModelBackend::free_slot(int worker, SlotId slot_id) {
  ScratchSlot& slot = slot_ref(worker, slot_id);
  BDL_CHECK(slot.live);
  slot.live = false;
}

SlotId ModelBackend::compute(int worker, int node_id,
                             const std::vector<SlotId>& inputs,
                             const Dims& out_lo, const Dims& out_extent,
                             bool /*mask_to_bounds*/) {
  const Node& node = graph_.node(node_id);
  if (FaultHooks* hooks = fault_hooks()) {
    if (!hooks->on_kernel(node_id, worker)) {
      throw StatusError(Status(StatusCode::kKernelFailure,
                               "injected kernel failure in '" + node.name +
                                   "'"));
    }
  }
  BDL_CHECK(inputs.size() == node.inputs.size());
  for (SlotId s : inputs) {
    BDL_CHECK_MSG(slot_ref(worker, s).live, "computing from a freed slot");
  }

  // Weights stream in on every invocation. The first stream per node runs
  // through the cache model (charging the DRAM fills); later invocations find
  // the layer's weights L2-resident and are accounted without per-line
  // simulation (see MemoryHierarchySim::count_l2_resident_reads).
  if (node.weight_elements() > 0) {
    const i64 bytes = node.weight_elements() * kFloatBytes;
    u64& addr = weight_addr_[static_cast<size_t>(node_id)];
    if (addr == 0) {
      addr = sim_.allocate("w:" + node.name, bytes);
      sim_.access(worker, addr, bytes, /*write=*/false);
    } else {
      sim_.count_l2_resident_reads(ceil_div(bytes, sim_.params().line_bytes));
    }
  }

  ++tally_.invocations;
  // Padded halo positions are genuinely computed, so the whole region volume
  // counts — that is the padded-bricks redundant-compute cost.
  const double region_flops =
      flops_per_blocked_point(node, graph_.input_shapes(node)) *
      static_cast<double>(out_extent.product());
  (uses_tensor_cores(node) ? tally_.tc_flops : tally_.flops) += region_flops;

  const SlotId id = new_slot(worker);
  ScratchSlot& out = slot_ref(worker, id);
  out.lo = out_lo;
  out.extent = out_extent;
  out.channels = node.out_shape.channels();
  out.live = true;
  return id;
}

void ModelBackend::execute_global(int worker, int node_id,
                                  const std::vector<TensorId>& inputs,
                                  TensorId out) {
  const Node& node = graph_.node(node_id);
  sim_.invocation_begin(worker);
  for (TensorId id : inputs) {
    const Buffer& buf = buffers_[static_cast<size_t>(id)];
    const Dims blocked = buf.shape.blocked_dims();
    emit_window(worker, buf, Dims::filled(blocked.rank(), 0), blocked,
                /*write=*/false);
  }
  if (node.weight_elements() > 0) {
    u64& addr = weight_addr_[static_cast<size_t>(node_id)];
    if (addr == 0) {
      addr = sim_.allocate("w:" + node.name,
                           node.weight_elements() * kFloatBytes);
    }
    sim_.access(worker, addr, node.weight_elements() * kFloatBytes,
                /*write=*/false);
  }
  const Buffer& out_buf = buffers_[static_cast<size_t>(out)];
  const Dims out_blocked = out_buf.shape.blocked_dims();
  emit_window(worker, out_buf, Dims::filled(out_blocked.rank(), 0), out_blocked,
              /*write=*/true);
  ++tally_.invocations;
  (uses_tensor_cores(node) ? tally_.tc_flops : tally_.flops) +=
      static_cast<double>(flops(node, graph_.input_shapes(node)));
}

void ModelBackend::count_atomics(i64 compulsory, i64 conflict) {
  sim_.count_atomics(compulsory, conflict);
}

void ModelBackend::tally_defer(i64 n) { tally_.defers += n; }

void ModelBackend::tally_reduce(i64 bricks) { tally_.bricks_reduced += bricks; }

void ModelBackend::discard_tensor(TensorId id) {
  BDL_CHECK(id >= 0 && id < static_cast<TensorId>(buffers_.size()));
  const Buffer& buf = buffers_[static_cast<size_t>(id)];
  if (buf.bytes > 0) sim_.discard(buf.base, buf.bytes);
}

}  // namespace brickdl
