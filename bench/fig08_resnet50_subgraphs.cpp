// Figure 8: ResNet-50 case study — padded vs. memoized bricks vs. the tiled
// cuDNN baseline, per partitioned subgraph, with the §4.4 execution-time
// breakdown (Idle, DRAM, Compute, compulsory/conflicting Atomics, Other)
// under the perfect memory/compute overlap assumption.
#include <cstring>

#include "bench_common.hpp"

namespace brickdl::bench {
namespace {

int run(bool quick) {
  std::printf(
      "== Figure 8: ResNet-50 — Padded vs. Memoized Bricks (simulated A100) "
      "==\n\n");

  // Quick mode narrows only the channels: at a smaller batch or input (8,
  // 112²) the cost-aware planner merges nothing, leaving nothing to compare.
  ModelConfig config;
  config.batch = 16;
  config.spatial = 224;
  config.width_div = quick ? 4 : 1;
  const Graph graph = build_resnet50(config);

  EngineOptions options;
  const Partition partition = partition_graph(graph, options.partition);

  // The first seven merged subgraphs, as in the paper's case study.
  std::vector<PlannedSubgraph> merged;
  for (const auto& planned : partition.subgraphs) {
    if (planned.strategy == Strategy::kVendor) continue;
    merged.push_back(planned);
    if (merged.size() == 7) break;
  }
  if (merged.empty()) {
    std::fprintf(stderr, "fig08: the plan merges no subgraph\n");
    return 1;
  }

  TextTable table({"subgraph", "layers", "B", "delta", "cuDNN (ms)",
                   "padded (ms)", "memoized (ms)", "padded rel",
                   "memoized rel", "best"});
  std::vector<Bar> bars;

  for (size_t i = 0; i < merged.size(); ++i) {
    const PlannedSubgraph& plan = merged[i];
    const SubgraphComparison cmp = compare_subgraph(graph, plan, options);
    const double base = cmp.vendor.overlapped_total();
    const double padded = cmp.padded.overlapped_total();
    const double memoized = cmp.memoized.overlapped_total();

    const std::string name = "Subgraph " + std::to_string(i + 1);
    table.add_row({name, std::to_string(plan.sg.nodes.size()),
                   std::to_string(plan.brick_side),
                   TextTable::num(plan.delta * 100.0, 1) + "%", ms(base),
                   ms(padded), ms(memoized), rel(padded, base),
                   rel(memoized, base),
                   padded <= memoized ? "padded" : "memoized"});

    add_breakdown_bars(&bars, name + " C", cmp.vendor.breakdown, 1e3);
    add_breakdown_bars(&bars, name + " P", cmp.padded.breakdown, 1e3);
    add_breakdown_bars(&bars, name + " M", cmp.memoized.breakdown, 1e3);
    std::printf("%s: done\n", name.c_str());
    std::fflush(stdout);
  }

  std::printf(
      "\nPer-subgraph execution time (overlapped model; C = cuDNN tiled, "
      "P = padded bricks, M = memoized bricks):\n%s\n",
      table.render().c_str());
  std::printf(
      "Breakdown bars in ms ([M] = memory side: DRAM+Idle; [C] = compute "
      "side: Compute+Atomics+Other):\n%s\n",
      render_bars(bars, 60, "ms").c_str());

  // Idle tail per subgraph (DESIGN.md §14): under the barriered schedule
  // every memoized subgraph pays its own straggler tail — workers that
  // finish their root range idle until the slowest one closes the barrier.
  // Pipelining merges consecutive memoized subgraphs into one chain, so the
  // tails collapse into a single tail per chain: finished workers cross the
  // retired boundary and compute downstream bricks instead of idling. The
  // virtual scheduler measures the tail in deterministic worker ticks.
  {
    // Unlike the C/P/M table above (the cost-aware plan, each strategy
    // forced per subgraph), this section plans with the paper's literal
    // §3.3.2 rules and forces memoized on every merged subgraph, so chains
    // of consecutive memoized subgraphs form on both configs.
    EngineOptions barriered;
    barriered.partition.cost_aware = false;
    barriered.force_strategy = Strategy::kMemoized;
    barriered.pipeline_subgraphs = false;
    std::vector<SubgraphReport> flat;
    run_brickdl(graph, barriered, &flat);
    EngineOptions pipelined = barriered;
    pipelined.pipeline_subgraphs = true;
    std::vector<SubgraphReport> chained;
    run_brickdl(graph, pipelined, &chained);

    TextTable idle({"subgraph", "strategy", "barriered idle-tail",
                    "pipelined", "chain len", "chain idle-tail"});
    // The sums cover only the subgraphs the pipelined run chained: an
    // unchained subgraph runs identically under both schedules, so adding
    // its tail to both sides would only hide the chains' change.
    double total_flat = 0.0, total_chained = 0.0;
    for (size_t i = 0; i < flat.size() && i < chained.size(); ++i) {
      const bool memo = flat[i].executed == Strategy::kMemoized;
      if (memo && chained[i].pipelined) {
        total_flat += flat[i].memo.idle_tail_fraction;
      }
      const bool lead =
          chained[i].pipelined && chained[i].memo.bricks_computed > 0;
      if (lead) total_chained += chained[i].memo.idle_tail_fraction;
      idle.add_row(
          {"Subgraph " + std::to_string(i + 1), strategy_name(flat[i].executed),
           memo ? TextTable::num(flat[i].memo.idle_tail_fraction * 100.0, 2) +
                      "%"
                : "-",
           chained[i].pipelined ? "yes" : "no",
           chained[i].pipelined ? std::to_string(chained[i].chain_len) : "-",
           lead ? TextTable::num(chained[i].memo.idle_tail_fraction * 100.0,
                                 2) +
                      "%"
                : "-"});
    }
    std::printf(
        "Per-subgraph idle tail, barriered vs pipelined (share of worker "
        "ticks spent\nwaiting at the inter-subgraph barrier; chain tails are "
        "reported once on the\nchain's first member):\n%s\n",
        idle.render().c_str());
    std::printf("Summed idle-tail fraction over the chained subgraphs: "
                "barriered %.2f%%  pipelined %.2f%%\n",
                total_flat * 100.0, total_chained * 100.0);
  }
  return 0;
}

}  // namespace
}  // namespace brickdl::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return brickdl::bench::run(quick);
}
