// Ablation: L2 capacity sensitivity.
//
// Merged brick execution banks on intermediate bricks staying L2-resident
// between producer and consumer invocations. This ablation shrinks and grows
// the simulated L2 (the A100 has 40 MB) and measures how the DRAM-transaction
// advantage of BrickDL over the tiled vendor baseline responds — the
// machine-dependent knob behind the paper's on-chip footprint rule (§3.3.1).
#include "bench_common.hpp"

namespace brickdl::bench {
namespace {

TxnCounters run_with_l2(const Graph& graph, i64 l2_bytes, bool merged) {
  MachineParams params = MachineParams::a100();
  params.l2_bytes = l2_bytes;
  MemoryHierarchySim sim(params);
  ModelBackend backend(graph, sim);
  if (merged) {
    EngineOptions options;
    options.partition.machine = params;
    options.partition.l2_budget = params.l2_bytes;
    Engine engine(graph, options);
    engine.run_checked(backend).status().throw_if_error();
  } else {
    FusedGraphExecutor exec(graph, backend, FusionRules::kNone, 32);
    exec.run();
    sim.flush();
  }
  return sim.counters();
}

int run() {
  std::printf("== Ablation: simulated L2 capacity vs. merged-execution "
              "benefit ==\n\n");

  ModelConfig config;
  config.batch = 8;
  config.spatial = 224;
  config.width_div = 1;
  const Graph graph = fuse_conv_pointwise(build_resnet50(config));

  TextTable table({"L2 (MB)", "cuDNN DRAM txns", "BrickDL DRAM txns",
                   "DRAM ratio", "BrickDL L2 txns"});
  for (i64 mb : {5, 10, 20, 40, 80}) {
    const i64 bytes = mb * 1024 * 1024;
    const TxnCounters vendor = run_with_l2(graph, bytes, /*merged=*/false);
    const TxnCounters brickdl = run_with_l2(graph, bytes, /*merged=*/true);
    table.add_row({std::to_string(mb), std::to_string(vendor.dram()),
                   std::to_string(brickdl.dram()),
                   rel(static_cast<double>(brickdl.dram()),
                       static_cast<double>(vendor.dram())),
                   std::to_string(brickdl.l2)});
    std::printf("L2 = %lld MB: done\n", static_cast<long long>(mb));
    std::fflush(stdout);
  }
  std::printf("\nResNet-50 (batch 8, 112x112): DRAM transactions vs. L2 "
              "size (ratio < 1 means BrickDL moves less):\n%s\n",
              table.render().c_str());
  return 0;
}

}  // namespace
}  // namespace brickdl::bench

int main() { return brickdl::bench::run(); }
