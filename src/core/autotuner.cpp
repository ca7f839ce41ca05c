#include "core/autotuner.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {
namespace {

TuneCandidate evaluate(const Graph& graph, EngineOptions options,
                       std::string label) {
  obs::TraceSpan span("tune", "candidate:" + label);
  obs::metrics().counter("tune.candidates").add(1);
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  Engine engine(graph, options);
  engine.run_checked(backend).status().throw_if_error();
  const CostModel cost(sim.params());
  const Breakdown b = cost.breakdown(sim.counters(), backend.tally());

  TuneCandidate candidate;
  candidate.options = std::move(options);
  candidate.label = std::move(label);
  candidate.modeled_seconds = b.dram + b.compute_side();
  candidate.dram_txns = sim.counters().dram();
  return candidate;
}

}  // namespace

TuneResult autotune(const Graph& graph, const TuneSpace& space) {
  TuneResult result;

  std::vector<std::optional<Strategy>> strategies = {std::nullopt};
  if (space.try_forced_strategies) {
    strategies.push_back(Strategy::kPadded);
    strategies.push_back(Strategy::kMemoized);
    if (space.enable_wavefront) strategies.push_back(Strategy::kWavefront);
  }

  for (int max_layers : space.max_layers) {
    for (i64 side : space.brick_sides) {
      for (const auto& strategy : strategies) {
        EngineOptions options;
        options.partition.max_layers = max_layers;
        options.partition.enable_wavefront = space.enable_wavefront;
        options.force_brick_side = side;
        options.force_strategy = strategy;

        std::ostringstream label;
        label << "layers<=" << max_layers << " B="
              << (side == 0 ? std::string("auto") : std::to_string(side))
              << " strategy="
              << (strategy ? strategy_name(*strategy) : "auto");
        result.candidates.push_back(
            evaluate(graph, std::move(options), label.str()));
      }
    }
  }

  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const TuneCandidate& a, const TuneCandidate& b) {
              return a.modeled_seconds < b.modeled_seconds;
            });
  return result;
}

}  // namespace brickdl
