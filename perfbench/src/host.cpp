// resnet50-host: closed-loop numeric inference, one caller.
#include <memory>

#include "common.hpp"

namespace perfbench {

using namespace brickdl;

namespace {

struct HostSetup {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<WeightStore> weights;
  std::unique_ptr<Engine> engine;
  Tensor input;
};

struct InferenceTimes {
  double run_s;    // Engine::run_checked alone
  double cycle_s;  // backend construction, run_checked and the output check
};

/// One inference on a fresh 4-worker backend (the way Server runs one).
InferenceTimes infer(HostSetup& h, const std::string& expected,
                     SpanRecorder& spans, Results& r,
                     RunAttribution* attribution = nullptr) {
  SpanRecorder::Scoped span(spans, "bench.inference");
  const double start = now_s();
  NumericBackend backend(*h.graph, *h.weights, 4);
  const double t0 = now_s();
  Result<EngineResult> result = [&] {
    SpanRecorder::Scoped run_span(spans, "engine.run_checked");
    return h.engine->run_checked(backend, &h.input);
  }();
  const double dt = now_s() - t0;
  const bool ok = result.ok();
  r.check(ok && digest(backend.read(result.value().output)) == expected,
          ok ? "resnet50-host: output differs from the eager oracle"
             : "resnet50-host: " + result.status().message());
  if (ok && attribution) attribute(result.value(), dt, *attribution);
  return {dt, now_s() - start};
}

void host_body(const Args& args, const obs::Json& ref, SpanRecorder& spans,
               Results& r) {
  const std::string expected = ref.find("digests")->elements().at(0).str();
  const EngineOptions options = host_engine_options();

  // Setup: graph build, Engine construction, one warm-up inference (which
  // also creates the lazily seeded weights and the backend's arenas).
  std::vector<double> setup_s, build_s, plan_s;
  HostSetup h;
  for (int i = 0; i < 5; ++i) {
    SpanRecorder::Scoped span(spans, "bench.setup");
    h.engine.reset();  // the Engine refers to the graph it replaces
    h = HostSetup{};
    const double t0 = now_s();
    {
      SpanRecorder::Scoped build(spans, "graph.build_resnet50");
      h.graph = std::make_unique<Graph>(build_resnet50(host_config()));
    }
    const double t1 = now_s();
    {
      SpanRecorder::Scoped plan(spans, "partition.engine_ctor");
      h.engine = std::make_unique<Engine>(*h.graph, options);
    }
    const double t2 = now_s();
    h.weights = std::make_unique<WeightStore>(args.seed);
    h.input = make_input(input_node(*h.graph).out_shape, args.seed, 0);
    const double t3 = now_s();
    infer(h, expected, spans, r);
    setup_s.push_back((t2 - t0) + (now_s() - t3));
    build_s.push_back(t1 - t0);
    plan_s.push_back(t2 - t1);
  }

  // Measure: back-to-back inferences for --seconds. The traced run
  // alternates spans off and on to price the tracing itself.
  std::vector<double> lat, lat_traced, cycle;
  std::vector<RunAttribution> runs;
  {
    SpanRecorder::Scoped span(spans, "bench.measure");
    SpanRecorder quiet(false);
    const double start = now_s();
    for (int i = 0; i == 0 || now_s() - start < args.seconds; ++i) {
      const bool traced = args.trace && i % 2 == 1;
      RunAttribution a;
      const InferenceTimes t =
          infer(h, expected, traced ? spans : quiet, r, &a);
      (traced ? lat_traced : lat).push_back(t.run_s);
      if (!traced) cycle.push_back(t.cycle_s);
      runs.push_back(a);
    }
  }

  for (double s : lat) r.samples_ms["inference"].push_back(s * 1e3);
  auto& x = r.metrics;
  x["setup_s"] = median(setup_s);
  x["latency_p50_ms"] = median(lat) * 1e3;
  // The median over the run of whole inference cycles, not count ÷ elapsed,
  // so that a machine stall during one cycle does not move it.
  x["throughput_per_s"] = 1.0 / median(cycle);
  copy_metrics(*ref.find("modeled"), r);
  if (!args.trace) return;

  x["graph.build_s"] = median(build_s);
  x["partition.plan_s"] = median(plan_s);
  partition_metrics(*h.graph, *h.engine, options, r);
  engine_metrics(runs, r);
  x["obs.trace_overhead_frac"] = median(lat_traced) / median(lat);

  {
    // Thread-pool scaling: the same plan under the virtual scheduler.
    SpanRecorder::Scoped span(spans, "bench.virtual_scheduler");
    EngineOptions virtual_options = options;
    virtual_options.memo_parallel = false;
    Engine virtual_engine(*h.graph, virtual_options);
    std::vector<double> virtual_s;
    for (int i = 0; i < 2; ++i) {
      NumericBackend backend(*h.graph, *h.weights, 4);
      const double t0 = now_s();
      const auto result = [&] {
        SpanRecorder::Scoped run(spans, "engine.run_checked");
        return virtual_engine.run_checked(backend, &h.input);
      }();
      virtual_s.push_back(now_s() - t0);
      r.check(result.ok() && digest(backend.read(result.value().output)) ==
                                 expected,
              "resnet50-host: virtual-scheduler output differs from oracle");
    }
    x["pool.scaling_4w"] = median(virtual_s) / x["engine.run_s"];
  }
  {
    SpanRecorder::Scoped span(spans, "bench.rss_growth");
    NumericBackend backend(*h.graph, *h.weights, 4);
    x["engine.rss_growth_mb_per_run"] =
        rss_growth_mb_per_run(*h.engine, backend, &h.input, 4);
  }
  layer_rows(*h.graph, h.input, *h.weights, spans,
             args.out_dir + "/" + args.workload + "-layers.json", r);
  serve_tier(args.seed, *ref.find("serve_digests"), spans, r);
}

}  // namespace

void run_host(const Args& args, const obs::Json& ref, Results& r) {
  SpanRecorder spans(args.trace);
  {
    SpanRecorder::Scoped root(spans, "bench.resnet50-host");
    host_body(args, ref, spans, r);
  }
  if (args.trace) write_trace(spans, args.out_dir, args.workload, r);
}

}  // namespace perfbench
