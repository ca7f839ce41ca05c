// The modeled A100 surface and the fig07-sim workload.
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "common.hpp"
#include "graph/rewrite.hpp"

namespace perfbench {

using namespace brickdl;

namespace {

/// Models prepared for repeated modeled passes: the raw graph (cuDNN
/// baseline), its conv+pointwise rewrite and the Engine planned over it.
struct Prepared {
  std::vector<std::unique_ptr<Graph>> raw, fused;
  std::vector<EngineOptions> options;
  std::vector<std::unique_ptr<Engine>> engines;
  double build_s = 0.0, plan_s = 0.0;
};

Prepared prepare(const std::vector<SimModel>& models, SpanRecorder& spans) {
  Prepared p;
  for (const SimModel& model : models) {
    const double t0 = now_s();
    {
      SpanRecorder::Scoped span(spans, "graph.build");
      p.raw.push_back(std::make_unique<Graph>(model.builder(model.config)));
    }
    {
      SpanRecorder::Scoped span(spans, "graph.fuse_conv_pointwise");
      p.fused.push_back(
          std::make_unique<Graph>(fuse_conv_pointwise(*p.raw.back())));
    }
    const double t1 = now_s();
    EngineOptions options;
    options.partition.max_layers = model.max_layers;
    {
      SpanRecorder::Scoped span(spans, "partition.engine_ctor");
      p.engines.push_back(std::make_unique<Engine>(*p.fused.back(), options));
    }
    p.options.push_back(options);
    p.build_s += t1 - t0;
    p.plan_s += now_s() - t1;
  }
  return p;
}

/// One BrickDL modeled pass over every prepared model, each on a fresh
/// simulator.
struct Pass {
  bool ok = true;
  double wall_s = 0.0;
  std::vector<TxnCounters> txns;
  std::vector<double> modeled_s;
  RunAttribution attribution;  ///< summed over the models
};

Pass modeled_pass(Prepared& p, SpanRecorder& spans) {
  Pass pass;
  const double t0 = now_s();
  for (size_t i = 0; i < p.engines.size(); ++i) {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(*p.fused[i], sim);
    const double r0 = now_s();
    Result<EngineResult> result = [&] {
      SpanRecorder::Scoped span(spans, "engine.run_checked");
      return p.engines[i]->run_checked(backend);
    }();
    const double run_s = now_s() - r0;
    if (!result.ok()) {
      pass.ok = false;
      continue;
    }
    TxnCounters txns;
    {
      SpanRecorder::Scoped span(spans, "sim.counters");
      sim.flush();
      txns = sim.counters();
    }
    pass.txns.push_back(txns);
    pass.modeled_s.push_back(bench::RunResult{
        CostModel(sim.params()).breakdown(txns, backend.tally()), txns,
        backend.tally()}
                                 .serial_total());
    attribute(result.value(), run_s, pass.attribution);
  }
  pass.wall_s = now_s() - t0;
  return pass;
}

bool same_counters(const TxnCounters& a, const TxnCounters& b) {
  return a.l1 == b.l1 && a.l2 == b.l2 && a.dram_read == b.dram_read &&
         a.dram_write == b.dram_write &&
         a.atomics_compulsory == b.atomics_compulsory &&
         a.atomics_conflict == b.atomics_conflict;
}

/// The cuDNN baseline (bench::run_baseline on the un-rewritten graphs):
/// modeled seconds per model, and the host wall time the passes took.
obs::Json cudnn_baseline(const std::vector<SimModel>& models) {
  obs::Json seconds = obs::Json::array();
  const double t0 = now_s();
  for (const SimModel& model : models) {
    const Graph graph = model.builder(model.config);
    seconds.push_back(
        bench::run_baseline(graph, FusionRules::kNone).serial_total());
  }
  obs::Json j = obs::Json::object();
  j.set("seconds", std::move(seconds));
  j.set("wall_s", now_s() - t0);
  return j;
}

/// modeled_speedup, sim.* and baselines.* of a BrickDL pass (taking
/// `wall_s` host seconds) beside the cuDNN baseline.
void modeled_metrics(const Pass& pass, const obs::Json& cudnn, double wall_s,
                     std::map<std::string, double>& x) {
  const std::vector<obs::Json>& cudnn_s = cudnn.find("seconds")->elements();
  TxnCounters total;
  double brickdl_s = 0.0, cudnn_total_s = 0.0, log_speedup = 0.0;
  for (size_t i = 0; i < pass.txns.size(); ++i) {
    total += pass.txns[i];
    brickdl_s += pass.modeled_s[i];
    cudnn_total_s += cudnn_s.at(i).number();
    log_speedup += std::log(cudnn_s.at(i).number() / pass.modeled_s[i]);
  }
  x["modeled_speedup"] =
      std::exp(log_speedup / static_cast<double>(pass.txns.size()));
  x["sim.l1_lines"] = static_cast<double>(total.l1);
  x["sim.l2_lines"] = static_cast<double>(total.l2);
  x["sim.dram_txns"] = static_cast<double>(total.dram());
  x["sim.atomics"] = static_cast<double>(total.atomics());
  x["sim.mlines_per_s"] = static_cast<double>(total.l1) / wall_s / 1e6;
  x["sim.modeled_ms"] = brickdl_s * 1e3;
  x["baselines.cudnn_wall_s"] = cudnn.find("wall_s")->number();
  x["baselines.cudnn_modeled_ms"] = cudnn_total_s * 1e3;
}

}  // namespace

obs::Json modeled_reference(const SimModel& model) {
  SpanRecorder spans(false);
  Prepared p = prepare({model}, spans);
  const Pass pass = modeled_pass(p, spans);
  BDL_CHECK_MSG(pass.ok, "modeled reference pass failed");
  std::map<std::string, double> x;
  modeled_metrics(pass, cudnn_baseline({model}), pass.wall_s, x);
  obs::Json j = obs::Json::object();
  for (const auto& [name, value] : x) j.set(name, value);
  return j;
}

obs::Json sim_reference() {
  obs::Json doc = obs::Json::object();
  doc.set("cudnn", cudnn_baseline(sim_models()));
  return doc;
}

namespace {

void sim_body(const Args& args, const obs::Json& ref, SpanRecorder& spans,
              Results& r) {
  const std::vector<SimModel> models = sim_models();

  // Setup: graph builds, rewrites, Engine construction, one warm-up pass.
  std::vector<double> setup_s, build_s, plan_s;
  std::unique_ptr<Prepared> prepared;
  std::vector<Pass> passes;
  for (int i = 0; i < 3; ++i) {
    SpanRecorder::Scoped span(spans, "bench.setup");
    prepared.reset();
    const double t0 = now_s();
    prepared = std::make_unique<Prepared>(prepare(models, spans));
    passes.push_back(modeled_pass(*prepared, spans));
    setup_s.push_back(now_s() - t0);
    build_s.push_back(prepared->build_s);
    plan_s.push_back(prepared->plan_s);
  }

  // Measure: repeated BrickDL passes; the trace run alternates spans on/off.
  std::vector<double> wall, wall_traced;
  {
    SpanRecorder::Scoped span(spans, "bench.measure");
    const double start = now_s();
    for (int i = 0; i == 0 || now_s() - start < args.seconds; ++i) {
      const bool traced = args.trace && i % 2 == 1;
      SpanRecorder quiet(false);
      passes.push_back(modeled_pass(*prepared, traced ? spans : quiet));
      (traced ? wall_traced : wall).push_back(passes.back().wall_s);
    }
  }

  // Every pass must reproduce the first one's counters and modeled time.
  const Pass& first = passes.front();
  for (const Pass& pass : passes) {
    bool same = pass.ok && pass.txns.size() == first.txns.size();
    for (size_t i = 0; same && i < pass.txns.size(); ++i) {
      same = same_counters(pass.txns[i], first.txns[i]) &&
             pass.modeled_s[i] == first.modeled_s[i];
    }
    r.check(same, "fig07-sim: modeled counters differ between passes");
  }

  modeled_metrics(passes.back(), *ref.find("cudnn"), median(wall), r.metrics);
  for (double s : wall) r.samples_ms["pass"].push_back(s * 1e3);
  auto& x = r.metrics;
  x["setup_s"] = median(setup_s);
  x["latency_p50_ms"] = median(wall) * 1e3;
  x["throughput_per_s"] = 1.0 / median(wall);
  if (!args.trace) return;

  x["graph.build_s"] = median(build_s);
  x["partition.plan_s"] = median(plan_s);
  for (size_t i = 0; i < prepared->engines.size(); ++i) {
    partition_metrics(*prepared->fused[i], *prepared->engines[i],
                      prepared->options[i], r);
  }
  x["partition.merged_node_frac"] /= static_cast<double>(models.size());
  std::vector<RunAttribution> runs;
  for (const Pass& pass : passes) runs.push_back(pass.attribution);
  engine_metrics(runs, r);
  {
    // One simulator and backend reused across runs of the first model.
    SpanRecorder::Scoped span(spans, "bench.rss_growth");
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(*prepared->fused[0], sim);
    x["engine.rss_growth_mb_per_run"] =
        rss_growth_mb_per_run(*prepared->engines[0], backend, nullptr, 3);
  }
  x["obs.trace_overhead_frac"] =
      wall_traced.empty() ? 0.0 : median(wall_traced) / median(wall);
}

}  // namespace

void run_sim(const Args& args, const obs::Json& ref, Results& r) {
  SpanRecorder spans(args.trace);
  {
    SpanRecorder::Scoped root(spans, "bench.fig07-sim");
    sim_body(args, ref, spans, r);
  }
  if (args.trace) write_trace(spans, args.out_dir, args.workload, r);
}

}  // namespace perfbench
