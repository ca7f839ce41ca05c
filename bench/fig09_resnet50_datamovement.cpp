// Figure 9: ResNet-50 data movement — Global (L1), L2, and DRAM transactions
// of padded and memoized merged execution relative to the tiled cuDNN
// baseline, per partitioned subgraph. The expected shape (§4.4): DRAM
// transactions drop while L1/L2 transactions rise — merged execution trades
// slow DRAM traffic for fast on-chip traffic.
#include <cstring>

#include "bench_common.hpp"

namespace brickdl::bench {
namespace {

int run(bool quick) {
  std::printf(
      "== Figure 9: ResNet-50 — Data Movement Relative to cuDNN (simulated "
      "A100) ==\n\n");

  // Quick mode narrows only the channels: at a smaller batch or input (8,
  // 112²) the cost-aware planner merges nothing, leaving nothing to compare.
  ModelConfig config;
  config.batch = 16;
  config.spatial = 224;
  config.width_div = quick ? 4 : 1;
  const Graph graph = build_resnet50(config);

  EngineOptions options;
  const Partition partition = partition_graph(graph, options.partition);

  std::vector<PlannedSubgraph> merged;
  for (const auto& planned : partition.subgraphs) {
    if (planned.strategy == Strategy::kVendor) continue;
    merged.push_back(planned);
    if (merged.size() == 7) break;
  }
  if (merged.empty()) {
    std::fprintf(stderr, "fig09: the plan merges no subgraph\n");
    return 1;
  }

  TextTable table({"subgraph", "variant", "L1 txns", "L2 txns", "DRAM txns",
                   "L1 rel", "L2 rel", "DRAM rel"});
  std::vector<Bar> bars;

  i64 dram_saved_best = 0, dram_base_best = 1;
  for (size_t i = 0; i < merged.size(); ++i) {
    const SubgraphComparison cmp =
        compare_subgraph(graph, merged[i], options);
    const TxnCounters& c = cmp.vendor.txns;
    const std::string name = "Subgraph " + std::to_string(i + 1);

    for (const auto& [variant, txns] :
         {std::pair<const char*, const TxnCounters*>{"padded", &cmp.padded.txns},
          {"memoized", &cmp.memoized.txns}}) {
      table.add_row({name, variant, std::to_string(txns->l1),
                     std::to_string(txns->l2), std::to_string(txns->dram()),
                     rel(static_cast<double>(txns->l1),
                         static_cast<double>(c.l1)),
                     rel(static_cast<double>(txns->l2),
                         static_cast<double>(c.l2)),
                     rel(static_cast<double>(txns->dram()),
                         static_cast<double>(c.dram()))});
      Bar bar;
      bar.label = name + " " + std::string(1, variant[0] == 'p' ? 'P' : 'M');
      bar.segments = {
          {"DRAM rel cuDNN",
           static_cast<double>(txns->dram()) / static_cast<double>(c.dram()),
           'D'}};
      bars.push_back(bar);
      if (c.dram() - txns->dram() > dram_saved_best) {
        dram_saved_best = c.dram() - txns->dram();
        dram_base_best = c.dram();
      }
    }
    std::printf("%s: done\n", name.c_str());
    std::fflush(stdout);
  }

  std::printf("\nTransactions relative to the cuDNN baseline (1.00):\n%s\n",
              table.render().c_str());
  std::printf("DRAM transactions relative to cuDNN (lower is better):\n%s\n",
              render_bars(bars, 50, "x").c_str());
  std::printf("Largest per-subgraph DRAM reduction: %.1f%%\n",
              100.0 * static_cast<double>(dram_saved_best) /
                  static_cast<double>(dram_base_best));
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
