// Per-node tiled vendor-library execution — the cuDNN-style building block
// used both by the baseline executors and by the BrickDL engine when the
// brick-size model selects vendor fallback for tiny layers (§3.3.3).
#pragma once

#include <unordered_map>

#include "core/backend.hpp"
#include "util/worker_team.hpp"

namespace brickdl {

/// Execute one node over its whole output in vendor-style tiles.
/// `io` maps each producer node id to its tensor; `out` receives the result.
/// Global ops (dense, global pooling) run as a single whole-tensor call.
///
/// Without `team`, tiles of `tile_side` run in row-major order on the
/// calling thread, tile t on backend worker t·workers/tiles (the modeled
/// access stream of one thread block per tile). With `team` (at most
/// `backend.num_workers()` members), the tiles run concurrently on the team
/// member that claims them, after the widest spatial tile side is halved
/// until every member has at least 4 tiles or the tile is 4 wide
/// (DESIGN.md §9.6). Either way every output element is computed by the
/// same kernel in the same summation order, so the result is bit-identical.
void run_node_tiled(const Graph& graph, const Node& node, Backend& backend,
                    const std::unordered_map<int, TensorId>& io, TensorId out,
                    i64 tile_side = 32, WorkerTeam* team = nullptr);

}  // namespace brickdl
