#include "serve/batch_planner.hpp"

#include <numeric>

#include "graph/rewrite.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl::serve {

BatchPlanner::BatchPlanner(const Graph& model, const ServeOptions& options)
    : model_(model), options_(options) {
  budget_ = options_.footprint_budget > 0
                ? options_.footprint_budget
                : options_.engine.partition.l2_budget;
}

Result<BatchPlanner::Cached*> BatchPlanner::cached_for(i64 total_rows) {
  auto it = cache_.find(total_rows);
  if (it != cache_.end()) {
    obs::metrics().counter("serve.plan_cache_hits").add(1);
    return &it->second;
  }
  obs::metrics().counter("serve.plan_cache_misses").add(1);
  obs::TraceSpan span("serve", "plan:" + model_.name(),
                      {{"rows", total_rows}});

  Result<Graph> rebatched = rebatch_graph(model_, total_rows);
  BDL_RETURN_IF_ERROR(rebatched.status());

  Cached cached(options_.breaker_failures, options_.breaker_cooldown);
  cached.graph = std::make_unique<Graph>(rebatched.take());
  cached.engine = std::make_unique<Engine>(*cached.graph, options_.engine);
  cached.validated = cached.engine->validate();
  for (const PlannedSubgraph& planned :
       cached.engine->partition().subgraphs) {
    // Calibrated constants (when set) fold into the machine here so the
    // deadline prediction agrees with what the partitioner optimized.
    cached.predicted_seconds +=
        obs::predict_subgraph(*cached.graph, planned,
                              effective_machine(options_.engine.partition))
            .seconds;
    if (planned.strategy == Strategy::kVendor) continue;
    cached.footprint =
        std::max(cached.footprint, planned.footprint_bytes);
  }
  if (options_.engine.partition.calibration) {
    // Seed the host-correction EWMA with the fitted wall_scale so the
    // deadline predictor starts near the measured wall cost instead of
    // learning the model→wall ratio from the first live requests. Clean
    // tier-0 runs still adapt it from there.
    cached.ewma_ratio = options_.engine.partition.calibration->wall_scale;
  }
  if (cached.footprint == 0) {
    // All-vendor plan: the partitioner reports no merged on-chip footprint,
    // so bound the stack by the largest activation the rebatched graph
    // materialises — the minimum working set any strategy must stream.
    for (const Node& node : cached.graph->nodes()) {
      cached.footprint = std::max(cached.footprint, node.out_shape.bytes());
    }
  }
  auto [pos, inserted] = cache_.emplace(total_rows, std::move(cached));
  BDL_CHECK(inserted);
  return &pos->second;
}

Status BatchPlanner::coalesce_into(const std::vector<i64>& rows,
                                   std::vector<size_t> members,
                                   std::vector<Plan>& plans) {
  i64 total_rows = 0;
  for (size_t m : members) total_rows += rows[m];

  Result<Cached*> cached = cached_for(total_rows);
  BDL_RETURN_IF_ERROR(cached.status());
  Cached* c = cached.value();

  // Any validation failure other than the footprint rule is a real error —
  // splitting won't fix a malformed graph.
  if (!c->validated.ok() &&
      c->validated.code() != StatusCode::kBudgetExceeded) {
    return c->validated;
  }

  const bool oversized =
      !c->validated.ok() || c->footprint > budget_ ||
      (options_.max_batch_rows > 0 && total_rows > options_.max_batch_rows);
  if (oversized && members.size() > 1) {
    ++splits_;
    obs::metrics().counter("serve.splits").add(1);
    obs::events().record(obs::ServeEvent::kSplit, 0, total_rows,
                         static_cast<i64>(members.size()));
    const size_t half = members.size() / 2;
    std::vector<size_t> lo(members.begin(), members.begin() + half);
    std::vector<size_t> hi(members.begin() + half, members.end());
    BDL_RETURN_IF_ERROR(coalesce_into(rows, std::move(lo), plans));
    return coalesce_into(rows, std::move(hi), plans);
  }
  if (oversized) {
    // A solo request can't split; the engine's own partitioner already kept
    // its plan within the real L2 budget, so run it and note the event.
    obs::metrics().counter("serve.oversized_solo").add(1);
  }

  Plan plan;
  plan.graph = c->graph.get();
  plan.engine = c->engine.get();
  plan.members = std::move(members);
  plan.rows = total_rows;
  plans.push_back(std::move(plan));
  return Status();
}

Result<std::vector<BatchPlanner::Plan>> BatchPlanner::coalesce(
    const std::vector<i64>& rows) {
  if (rows.empty()) {
    return Status(StatusCode::kInvalidOptions, "coalesce: no requests");
  }
  std::vector<size_t> members(rows.size());
  std::iota(members.begin(), members.end(), size_t{0});
  std::vector<Plan> plans;
  BDL_RETURN_IF_ERROR(coalesce_into(rows, std::move(members), plans));
  return plans;
}

BatchPlanner::Cached* BatchPlanner::cached_for_plan(const Plan& plan) {
  auto it = cache_.find(plan.rows);
  BDL_CHECK_MSG(it != cache_.end(),
                "plan for " << plan.rows << " rows has no cache entry");
  return &it->second;
}

i64 BatchPlanner::plan_footprint(const Plan& plan) {
  return cached_for_plan(plan)->footprint;
}

BatchPlanner::Selected BatchPlanner::select_engine(const Plan& plan) {
  Cached* c = cached_for_plan(plan);
  Selected selected;
  selected.tier = c->breaker.tier();
  selected.probe = c->breaker.probing();
  if (selected.tier == 0) {
    selected.engine = c->engine.get();
    return selected;
  }
  std::unique_ptr<Engine>& slot = c->tier_engines[selected.tier - 1];
  if (!slot) {
    // Same cached graph, same knobs, but the degraded tier's strategy is
    // forced — the run never pays the known-failing rung's attempt.
    EngineOptions degraded = options_.engine;
    degraded.force_strategy =
        selected.tier == 1 ? Strategy::kPadded : Strategy::kVendor;
    slot = std::make_unique<Engine>(*c->graph, degraded);
  }
  selected.engine = slot.get();
  return selected;
}

DegradationBreaker::Transition BatchPlanner::record_run(
    const Plan& plan, int tier, bool degraded, double measured_seconds) {
  Cached* c = cached_for_plan(plan);
  const DegradationBreaker::Transition transition =
      c->breaker.record(degraded);
  // Correct the §4 prediction with what this plan actually costs on this
  // host. Only clean tier-0 runs are representative of the planned
  // strategy; a degraded or breaker-routed run would teach the predictor
  // the cost of the wrong tier.
  if (tier == 0 && !degraded && c->predicted_seconds > 0 &&
      measured_seconds > 0) {
    const double ratio = measured_seconds / c->predicted_seconds;
    constexpr double kAlpha = 0.3;
    c->ewma_ratio = c->ewma_seeded
                        ? (1.0 - kAlpha) * c->ewma_ratio + kAlpha * ratio
                        : ratio;
    c->ewma_seeded = true;
  }
  return transition;
}

double BatchPlanner::predicted_seconds(const Plan& plan) {
  Cached* c = cached_for_plan(plan);
  return c->predicted_seconds * c->ewma_ratio;
}

Result<BatchPlanner::Plan> BatchPlanner::solo(size_t member, i64 rows) {
  Result<Cached*> cached = cached_for(rows);
  BDL_RETURN_IF_ERROR(cached.status());
  Cached* c = cached.value();
  if (!c->validated.ok() &&
      c->validated.code() != StatusCode::kBudgetExceeded) {
    return c->validated;
  }
  Plan plan;
  plan.graph = c->graph.get();
  plan.engine = c->engine.get();
  plan.members = {member};
  plan.rows = rows;
  return plan;
}

}  // namespace brickdl::serve
