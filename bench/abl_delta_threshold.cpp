// Ablation: the Δ strategy-selection threshold (§3.3.2).
//
// The paper fixes Δ > 15% as the switch point from padded to memoized bricks
// and reports the value as validated across NVIDIA and AMD GPUs. This
// ablation sweeps the threshold with the literal Δ rule enabled
// (cost_aware = false) on ResNet-50 and reports the strategy mix and the
// modeled end-to-end time per setting — showing how sensitive the system is
// to the paper's constant.
#include "bench_common.hpp"

namespace brickdl::bench {
namespace {

int run() {
  std::printf("== Ablation: padded/memoized selection threshold Δ ==\n\n");

  ModelConfig config;
  config.batch = 8;
  config.spatial = 224;
  config.width_div = 1;
  const Graph graph = fuse_conv_pointwise(build_resnet50(config));

  TextTable table({"Δ threshold", "padded sgs", "memoized sgs", "vendor sgs",
                   "total (ms)", "rel best"});
  struct Row {
    double threshold;
    int padded = 0, memoized = 0, vendor = 0;
    double total = 0.0;
  };
  std::vector<Row> rows;

  for (double threshold : {0.05, 0.10, 0.15, 0.25, 0.50, 1.00}) {
    EngineOptions options;
    options.partition.cost_aware = false;  // exercise the literal Δ rule
    options.partition.delta_threshold = threshold;
    Row row;
    row.threshold = threshold;

    std::vector<SubgraphReport> reports;
    const RunResult r = run_brickdl(graph, options, &reports);
    row.total = r.serial_total();
    for (const auto& report : reports) {
      switch (report.plan.strategy) {
        case Strategy::kPadded: ++row.padded; break;
        case Strategy::kMemoized: ++row.memoized; break;
        case Strategy::kVendor: ++row.vendor; break;
      }
    }
    rows.push_back(row);
    std::printf("threshold %.0f%%: done\n", threshold * 100.0);
    std::fflush(stdout);
  }

  double best = rows[0].total;
  for (const Row& row : rows) best = std::min(best, row.total);
  for (const Row& row : rows) {
    table.add_row({TextTable::num(row.threshold * 100.0, 0) + "%",
                   std::to_string(row.padded), std::to_string(row.memoized),
                   std::to_string(row.vendor), ms(row.total),
                   rel(row.total, best)});
  }
  std::printf("\nResNet-50 under the literal Δ rule (cost model "
              "disabled):\n%s\n",
              table.render().c_str());
  return 0;
}

}  // namespace
}  // namespace brickdl::bench

int main() { return brickdl::bench::run(); }
