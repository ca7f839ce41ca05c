// Persistent plan cache (DESIGN.md §15): tuned plans amortized across
// processes.
//
// Planning a graph — partitioning, brick-size search, strategy selection —
// is pure and deterministic in (graph, planning options, cost-model
// constants), so its result can be persisted and reused by any later process
// planning the same graph the same way. The cache key is therefore exactly
// that triple:
//
//   * graph signature — FNV-1a over the canonical text serialization
//     (graph/serialize.hpp), so any structural or shape change re-keys;
//   * row count — the input batch dimension, called out separately because
//     the serving layer rebatches the same model per batch size and each row
//     count plans differently;
//   * options fingerprint — every knob that can change the planner's output
//     (partition budgets, brick model τ, force overrides, and
//     the *effective* — i.e. calibrated — machine constants), rendered as a
//     canonical string. A calibrated process never warm-starts from an
//     uncalibrated plan, and vice versa.
//
// Entries are one JSON file per key (`brickdl-plan-cache-v1`), written
// atomically (tmp + rename, unique tmp name per writer) so concurrent
// writers and crashed processes can never publish a torn file. Loads trust
// nothing: a missing file is a miss; anything else that fails validation —
// truncation, wrong schema (kUnknownSchema), a signature that does not match
// the graph in hand, structurally impossible plans (kInvalidGraph) — is a
// reject, reported with its named Status so the caller falls back to cold
// planning and counts it (`engine.plan_cache.rejects`). A reject or a miss
// is never a crash and never an engine failure.
#pragma once

#include <optional>
#include <string>

#include "core/engine.hpp"
#include "obs/calibrate.hpp"
#include "obs/json.hpp"

namespace brickdl {

/// Stable 64-bit FNV-1a signature (as 16 hex chars) of the graph's canonical
/// text serialization. Any structural, attribute, or shape change re-keys.
std::string graph_signature(const Graph& graph);

/// The canonical planning-knob fingerprint (human-readable, stored verbatim
/// in each entry). Covers everything partition_graph + the force overrides
/// read, including the calibrated machine constants.
std::string plan_options_fingerprint(const EngineOptions& options);

/// Batch rows of the graph's first input node (the serving rebatch axis);
/// 0 for a graph with no input node.
i64 graph_rows(const Graph& graph);

/// One persisted plan: the partition the engine would have computed cold,
/// plus the calibration snapshot it was planned under (when any).
struct PlanCacheEntry {
  Partition partition;
  std::optional<obs::CalibratedConstants> calibration;
};

struct PlanCacheLookup {
  enum class Outcome {
    kHit,    ///< entry validated against the graph in hand; plan usable
    kMiss,   ///< no entry on disk for this key
    kReject  ///< entry present but failed validation; fall back to cold
  };
  Outcome outcome = Outcome::kMiss;
  Status reject_reason;  ///< kUnknownSchema / kInvalidGraph when kReject
  PlanCacheEntry entry;  ///< filled on kHit
};

class PlanCache {
 public:
  explicit PlanCache(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Entry file for (graph, options): plan-<sig>-r<rows>-<fp-hash>.json.
  std::string entry_path(const Graph& graph, const EngineOptions& options) const;

  /// Look up and fully validate the entry for (graph, options). Never
  /// throws on untrusted file content.
  PlanCacheLookup load(const Graph& graph, const EngineOptions& options) const;

  /// Persist `entry` for (graph, options) atomically (tmp + rename; the tmp
  /// name embeds the pid and a process-local counter so concurrent writers
  /// never collide). Creates the cache directory if needed. kUnavailable-ish
  /// I/O problems come back as kInvalidOptions with the failing path.
  Status store(const Graph& graph, const EngineOptions& options,
               const PlanCacheEntry& entry) const;

  /// Serialize an entry to its on-disk document (exposed for tests that
  /// construct poisoned variants).
  static obs::Json entry_to_json(const Graph& graph,
                                 const EngineOptions& options,
                                 const PlanCacheEntry& entry);

  /// Parse + validate a document against the graph/options in hand.
  /// kUnknownSchema for a wrong schema string; kInvalidGraph for anything
  /// structurally unusable (truncation is caught earlier, at Json::parse).
  static Result<PlanCacheEntry> entry_from_json(const obs::Json& doc,
                                                const Graph& graph,
                                                const EngineOptions& options);

 private:
  std::string dir_;
};

}  // namespace brickdl
