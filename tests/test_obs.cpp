// Observability layer (DESIGN.md §8): tracer export/parse-back and span
// nesting, metrics exactness under concurrency, mid-run memoized stats
// snapshots, model-vs-measured golden comparisons, and run-report schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "models/models.hpp"
#include "obs/calibrate.hpp"
#include "obs/events.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace brickdl {
namespace {

using obs::Json;

/// Every tracer/metrics test starts from a clean global state: drop all
/// recorded events and zero every instrument (both are process-wide).
void reset_obs() {
  obs::Tracer::instance().set_enabled(false);
  obs::Tracer::instance().clear();
  obs::metrics().reset();
}

struct ModelRun {
  EngineResult result;
  MachineParams machine = MachineParams::a100();
};

ModelRun run_model(const Graph& graph, EngineOptions options) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  Engine engine(graph, std::move(options));
  ModelRun run;
  run.result = engine.run_checked(backend).take();
  run.machine = sim.params();
  return run;
}

// ---------------------------------------------------------------- Json

TEST(ObsJson, RoundTripPreservesStructure) {
  Json doc = Json::object();
  doc.set("name", "brickdl");
  doc.set("count", i64{42});
  doc.set("ratio", 0.25);
  doc.set("ok", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(i64{1});
  arr.push_back("two");
  Json inner = Json::object();
  inner.set("deep", i64{-7});
  arr.push_back(std::move(inner));
  doc.set("items", std::move(arr));

  for (int indent : {-1, 1, 2}) {
    Result<Json> back = Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(back.value() == doc);
  }
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1} trailing", "nul", "\"\\q\"",
        "{\"a\" 1}", "[1 2]"}) {
    Result<Json> r = Json::parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidGraph);
    }
  }
}

// --------------------------------------------------------------- Tracer

TEST(ObsTrace, ExportIsWellFormedChromeTrace) {
  reset_obs();
  obs::Tracer::instance().set_enabled(true);
  obs::Tracer::set_thread_label("test-main");
  {
    obs::TraceSpan outer("engine", "outer", {{"k", 7}});
    obs::TraceSpan inner("layer", "inner");
  }
  obs::Tracer::instant("engine", "marker");
  obs::Tracer::instance().set_enabled(false);

  EXPECT_EQ(obs::Tracer::instance().event_count(), 3u);
  const std::string text = obs::Tracer::instance().export_chrome_json();
  Result<Json> doc = Json::parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_TRUE(obs::validate_chrome_trace(doc.value()).ok());

  // The calling thread's track is labeled via thread_name metadata.
  bool found_label = false;
  for (const Json& e : doc.value().find("traceEvents")->elements()) {
    const Json* ph = e.find("ph");
    if (ph && ph->str() == "M") {
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      if (args->find("name")->str() == "test-main") found_label = true;
    }
  }
  EXPECT_TRUE(found_label);
}

TEST(ObsTrace, RuntimeOffRecordsNothing) {
  reset_obs();
  ASSERT_FALSE(obs::Tracer::enabled());
  {
    obs::TraceSpan span("engine", "should-not-appear", {{"k", 1}});
    obs::TraceSpan gated("engine", "also-not", false);
  }
  obs::Tracer::instant("engine", "neither");
  // Gate=false spans record nothing even while the tracer is on.
  obs::Tracer::instance().set_enabled(true);
  { obs::TraceSpan gated("engine", "gated-off", false); }
  obs::Tracer::instance().set_enabled(false);
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);

  // An engine run with tracing runtime-off must leave the rings empty too.
  EngineOptions options;
  (void)run_model(build_conv_chain_2d(2, 1, 18, 2), options);
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST(ObsTrace, RingOverflowCountsDropped) {
  reset_obs();
  obs::Tracer::instance().clear();
  // New capacity applies to buffers registered afterwards; record from a
  // fresh thread so its ring is small.
  obs::Tracer::instance().set_ring_capacity(16);
  std::thread t([] {
    obs::Tracer::instance().set_enabled(true);
    for (int i = 0; i < 40; ++i) {
      obs::TraceSpan span("engine", "spin");
    }
    obs::Tracer::instance().set_enabled(false);
  });
  t.join();
  EXPECT_EQ(obs::Tracer::instance().dropped_events(), 24u);
  EXPECT_EQ(obs::Tracer::instance().event_count(), 16u);
  obs::Tracer::instance().set_ring_capacity(size_t{1} << 16);
}

struct SpanRec {
  std::string name;
  std::string cat;
  double ts = 0.0;
  double dur = 0.0;
  i64 tid = 0;
  bool contains(const SpanRec& inner) const {
    // 1ns slack: the export rounds ns to µs doubles independently per event.
    constexpr double kSlackUs = 1e-3;
    return tid == inner.tid && ts <= inner.ts + kSlackUs &&
           inner.ts + inner.dur <= ts + dur + kSlackUs;
  }
};

std::vector<SpanRec> complete_spans(const Json& trace) {
  std::vector<SpanRec> spans;
  for (const Json& e : trace.find("traceEvents")->elements()) {
    if (e.find("ph")->str() != "X") continue;
    SpanRec s;
    s.name = e.find("name")->str();
    s.cat = e.find("cat")->str();
    s.ts = e.find("ts")->number();
    s.dur = e.find("dur")->number();
    s.tid = e.find("tid")->integer();
    spans.push_back(std::move(s));
  }
  return spans;
}

bool contained_in_any(const SpanRec& inner, const std::vector<SpanRec>& spans,
                      const std::string& cat,
                      const std::string& name_prefix = "") {
  for (const SpanRec& outer : spans) {
    if (outer.cat != cat) continue;
    if (!name_prefix.empty() &&
        outer.name.rfind(name_prefix, 0) != 0) {
      continue;
    }
    if (outer.contains(inner)) return true;
  }
  return false;
}

void check_span_hierarchy(Strategy strategy) {
  reset_obs();
  obs::Tracer::instance().set_enabled(true);
  EngineOptions options;
  options.force_strategy = strategy;
  (void)run_model(build_conv_chain_2d(3, 1, 20, 2), options);
  obs::Tracer::instance().set_enabled(false);

  const Json trace = obs::Tracer::instance().export_chrome_trace();
  ASSERT_TRUE(obs::validate_chrome_trace(trace).ok());
  const std::vector<SpanRec> spans = complete_spans(trace);

  int bricks = 0, layers = 0, subgraphs = 0;
  for (const SpanRec& s : spans) {
    if (s.cat == "brick") {
      // Every brick kernel span nests inside a layer span, which nests
      // inside a subgraph span, which nests inside the engine run span.
      EXPECT_TRUE(contained_in_any(s, spans, "layer")) << s.name;
      ++bricks;
    } else if (s.cat == "layer") {
      EXPECT_TRUE(contained_in_any(s, spans, "engine", "subgraph:"))
          << s.name;
      ++layers;
    } else if (s.cat == "engine" && s.name.rfind("subgraph:", 0) == 0) {
      EXPECT_TRUE(contained_in_any(s, spans, "engine", "run:")) << s.name;
      ++subgraphs;
    }
  }
  EXPECT_GT(bricks, 0);
  EXPECT_GT(layers, 0);
  EXPECT_GT(subgraphs, 0);
  EXPECT_GE(layers, bricks);  // a layer span wraps each brick kernel
}

TEST(ObsTrace, SpanNestingMatchesHierarchyPadded) {
  check_span_hierarchy(Strategy::kPadded);
}

TEST(ObsTrace, SpanNestingMatchesHierarchyMemoized) {
  check_span_hierarchy(Strategy::kMemoized);
}

// -------------------------------------------------------------- Metrics

TEST(ObsMetrics, ExactUnderConcurrentWriters) {
  reset_obs();
  constexpr int kThreads = 16;
  constexpr int kIters = 10000;
  obs::Counter& counter = obs::metrics().counter("test.concurrent");
  obs::Histogram& hist = obs::metrics().histogram("test.concurrent_hist");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.add(1);
        hist.observe(t + 1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter.value(), i64{kThreads} * kIters);
  EXPECT_EQ(hist.count(), i64{kThreads} * kIters);
  // Sum of (t+1) over threads, each observed kIters times.
  EXPECT_EQ(hist.sum(), i64{kIters} * kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(hist.min(), 1);
  EXPECT_EQ(hist.max(), kThreads);
}

TEST(ObsMetrics, HistogramBucketsAndPercentiles) {
  reset_obs();
  obs::Histogram& hist = obs::metrics().histogram("test.hist");
  EXPECT_EQ(hist.min(), 0);  // empty
  EXPECT_EQ(hist.max(), 0);
  for (i64 v : {0, 1, 2, 3, 4, 7, 8, 1000}) hist.observe(v);
  EXPECT_EQ(hist.count(), 8);
  EXPECT_EQ(hist.sum(), 1025);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.max(), 1000);
  // Log-linear buckets: values below 2*kSubBuckets are exact, one per
  // bucket (index == value).
  for (i64 v : {0, 1, 2, 3, 4, 7, 8}) {
    EXPECT_EQ(obs::Histogram::bucket_of(v), v);
    EXPECT_EQ(hist.bucket_count(static_cast<int>(v)), 1) << v;
  }
  // 1000 lands in its octave's 16-way linear subdivision: [992, 1023].
  const int b = obs::Histogram::bucket_of(1000);
  EXPECT_EQ(obs::Histogram::bucket_lower(b), 992);
  EXPECT_EQ(obs::Histogram::bucket_upper(b), 1023);
  EXPECT_EQ(hist.bucket_count(b), 1);
  // The quantile read clamps the bucket's upper bound to the observed max.
  EXPECT_EQ(hist.percentile(0.99), 1000);
  hist.reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.max(), 0);
  hist.observe(5);  // post-reset sentinel behavior
  EXPECT_EQ(hist.min(), 5);
  EXPECT_EQ(hist.max(), 5);
}

TEST(ObsMetrics, HistogramBucketBoundsPartitionTheRange) {
  // Every bucket's [lower, upper] must tile the i64 range: bucket_of maps
  // both endpoints back to the bucket, and upper+1 is the next lower.
  i64 expected_lower = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    const i64 lo = obs::Histogram::bucket_lower(b);
    const i64 hi = obs::Histogram::bucket_upper(b);
    ASSERT_EQ(lo, expected_lower) << "bucket " << b;
    ASSERT_LE(lo, hi) << "bucket " << b;
    ASSERT_EQ(obs::Histogram::bucket_of(lo), b);
    ASSERT_EQ(obs::Histogram::bucket_of(hi), b);
    if (b + 1 == obs::Histogram::kBuckets) break;
    expected_lower = hi + 1;
  }
  // Relative quantile error is bounded by the sub-bucket width: for any
  // value >= 32, upper/lower stays below 1 + 1/kSubBuckets.
  for (i64 v : {i64{32}, i64{1000}, i64{123456789}, i64{1} << 40}) {
    const int b = obs::Histogram::bucket_of(v);
    const double lo = static_cast<double>(obs::Histogram::bucket_lower(b));
    const double hi = static_cast<double>(obs::Histogram::bucket_upper(b));
    EXPECT_LE(hi / lo, 1.0 + 1.0 / obs::Histogram::kSubBuckets + 1e-9) << v;
  }
}

TEST(ObsMetrics, HistogramExactUnderConcurrentWriters) {
  // 16 writers x 20k samples from disjoint deterministic streams: count and
  // sum must be exact, every per-thread sample must land in the bucket
  // bucket_of says, and quantiles must respect the log-linear error bound.
  reset_obs();
  constexpr int kThreads = 16;
  constexpr int kIters = 20000;
  obs::Histogram& hist = obs::metrics().histogram("test.concurrent_exact");

  std::vector<i64> sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      u64 state = 0x9e3779b97f4a7c15ull + static_cast<u64>(t);
      i64 local_sum = 0;
      for (int i = 0; i < kIters; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Spread samples across octaves: low 20 bits, shifted by 0..15.
        const i64 v = static_cast<i64>((state >> 24) & 0xfffff) >>
                      ((state >> 8) & 15);
        hist.observe(v);
        local_sum += v;
      }
      sums[t] = local_sum;
    });
  }
  for (auto& t : threads) t.join();

  i64 total = 0;
  for (i64 s : sums) total += s;
  EXPECT_EQ(hist.count(), i64{kThreads} * kIters);
  EXPECT_EQ(hist.sum(), total);

  // Bucket counts sum to count() (no lost or double-counted samples).
  i64 bucketed = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    bucketed += hist.bucket_count(b);
  }
  EXPECT_EQ(bucketed, hist.count());

  // Quantile error bound: replay the same streams, compute the exact
  // quantiles, and require the histogram read within 1/kSubBuckets.
  std::vector<i64> all;
  all.reserve(static_cast<size_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    u64 state = 0x9e3779b97f4a7c15ull + static_cast<u64>(t);
    for (int i = 0; i < kIters; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      all.push_back(static_cast<i64>((state >> 24) & 0xfffff) >>
                    ((state >> 8) & 15));
    }
  }
  std::sort(all.begin(), all.end());
  for (double p : {0.5, 0.95, 0.99}) {
    const i64 exact =
        all[static_cast<size_t>(p * static_cast<double>(all.size() - 1))];
    const i64 approx = hist.percentile(p);
    EXPECT_GE(approx, exact) << p;  // upper-bound read
    const double bound =
        (1.0 + 1.0 / obs::Histogram::kSubBuckets) *
            static_cast<double>(std::max<i64>(exact, 1)) +
        1.0;
    EXPECT_LE(static_cast<double>(approx), bound) << p;
  }
}

TEST(ObsMetrics, RegistryJsonSnapshot) {
  reset_obs();
  obs::metrics().counter("test.a").add(3);
  obs::metrics().gauge("test.g").set(1.5);
  obs::metrics().histogram("test.h").observe(4);
  const Json snap = obs::metrics().to_json();
  ASSERT_TRUE(snap.is_object());
  const Json* a = snap.find("test.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->integer(), 3);
  const Json* g = snap.find("test.g");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number(), 1.5);
  const Json* h = snap.find("test.h");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->is_object());
  EXPECT_EQ(h->find("count")->integer(), 1);
  EXPECT_EQ(h->find("sum")->integer(), 4);
}

TEST(ObsMetrics, ExecutorCountersLandOnRegistry) {
  reset_obs();
  EngineOptions options;
  options.force_strategy = Strategy::kMemoized;
  const ModelRun run = run_model(build_conv_chain_2d(2, 1, 18, 2), options);

  i64 bricks = 0, atomics = 0;
  for (const SubgraphReport& r : run.result.reports) {
    bricks += r.memo.bricks_computed;
    atomics += r.memo.compulsory_atomics;
  }
  ASSERT_GT(bricks, 0);
  // The memoized executor publishes its Stats onto the shared registry
  // (satellite: ad-hoc counters migrated to metrics).
  EXPECT_EQ(obs::metrics().counter("memo.bricks_computed").value(), bricks);
  EXPECT_EQ(obs::metrics().counter("memo.compulsory_atomics").value(),
            atomics);
  EXPECT_EQ(obs::metrics().counter("memo.reclaims").value(), 0);
  EXPECT_GT(obs::metrics().counter("engine.subgraphs").value(), 0);
  EXPECT_GT(obs::metrics().counter("partition.runs").value(), 0);
}

// --------------------------------------------- Memoized stats snapshots

Subgraph all_non_input_nodes(const Graph& g) {
  Subgraph sg;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kInput) {
      sg.external_inputs.push_back(n.id);
    } else {
      sg.nodes.push_back(n.id);
    }
  }
  sg.merged = true;
  return sg;
}

TEST(ObsMemoStats, MidRunSnapshotIsMonotonicAndConverges) {
  const Graph g = build_conv_chain_2d(3, 1, 24, 2);
  const Subgraph sg = all_non_input_nodes(g);
  const Dims brick_extent{1, 4, 4};
  const int workers = 8;

  WeightStore ws(5);
  NumericBackend backend(g, ws, workers);
  std::unordered_map<int, TensorId> io;
  Rng rng(77);
  for (int ext : sg.external_inputs) {
    const TensorId id = backend.register_tensor(
        g.node(ext).out_shape, Layout::kCanonical, {}, "ext");
    Tensor input(g.node(ext).out_shape);
    input.fill_random(rng);
    backend.bind(id, input);
    io[ext] = id;
  }
  io[sg.terminal()] = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, brick_extent, "out");

  MemoizedExecutor exec(g, sg, brick_extent, backend, io, workers);

  // Poll snapshots concurrently with the parallel run: the reader must be
  // race-free (TSan) and each counter monotonic across snapshots.
  std::atomic<bool> done{false};
  std::vector<MemoizedExecutor::Stats> seen;
  std::thread poller([&] {
    MemoizedExecutor::Stats prev;
    while (!done.load(std::memory_order_acquire)) {
      const MemoizedExecutor::Stats s = exec.stats_snapshot();
      EXPECT_GE(s.bricks_computed, prev.bricks_computed);
      EXPECT_GE(s.compulsory_atomics, prev.compulsory_atomics);
      EXPECT_GE(s.defers, prev.defers);
      prev = s;
      seen.push_back(s);
      std::this_thread::yield();
    }
  });

  WorkerTeam pool(workers);
  EXPECT_TRUE(exec.run_parallel_checked(pool).ok());
  done.store(true, std::memory_order_release);
  poller.join();

  // After finish() the aggregate and a fresh snapshot agree exactly.
  const MemoizedExecutor::Stats final_stats = exec.stats();
  const MemoizedExecutor::Stats snap = exec.stats_snapshot();
  EXPECT_EQ(final_stats.bricks_computed, snap.bricks_computed);
  EXPECT_EQ(final_stats.compulsory_atomics, snap.compulsory_atomics);
  EXPECT_EQ(final_stats.conflict_atomics, snap.conflict_atomics);
  EXPECT_EQ(final_stats.defers, snap.defers);
  EXPECT_GT(final_stats.bricks_computed, 0);
  EXPECT_EQ(final_stats.compulsory_atomics, 2 * final_stats.bricks_computed);
}

// ------------------------------------------------- Attempt durations

TEST(ObsEngine, AttemptAndSubgraphDurationsRecorded) {
  EngineOptions options;
  const ModelRun run = run_model(build_conv_chain_2d(3, 1, 20, 2), options);
  ASSERT_FALSE(run.result.reports.empty());
  for (const SubgraphReport& r : run.result.reports) {
    ASSERT_FALSE(r.attempts.empty());
    // Single successful attempt: its duration is the subgraph's.
    EXPECT_EQ(r.attempts.size(), 1u);
    EXPECT_GT(r.attempts.back().wall_seconds, 0.0);
    EXPECT_EQ(r.wall_seconds, r.attempts.back().wall_seconds);
  }
}

// ------------------------------------- Golden model-vs-measured profile

/// |observed - predicted| / observed must be within `tol`.
void expect_close(double predicted, double observed, double tol,
                  const char* what) {
  ASSERT_GT(observed, 0.0) << what;
  EXPECT_LE(std::abs(observed - predicted) / observed, tol)
      << what << ": predicted " << predicted << " observed " << observed;
}

void check_golden(Strategy strategy, double bytes_tol) {
  // Fixed graph: 3-layer 2D conv chain, 24x24 input, 2 channels. Small
  // enough that the whole working set is L2-resident, so observed DRAM
  // traffic is dominated by the compulsory bytes the predictor counts.
  EngineOptions options;
  options.force_strategy = strategy;
  options.profile = true;
  const ModelRun run = run_model(build_conv_chain_2d(3, 1, 24, 2), options);

  int modeled = 0;
  for (const SubgraphReport& r : run.result.reports) {
    if (!r.predicted.modeled) continue;
    ++modeled;
    SCOPED_TRACE(strategy_name(r.executed));
    EXPECT_EQ(r.executed, r.predicted.strategy);

    // Structural quantities are exact: the predictor walks the same brick
    // dependence graph the executor schedules.
    EXPECT_EQ(r.predicted.invocations, r.tally.invocations);
    EXPECT_EQ(r.predicted.compulsory_atomics, r.txns.atomics_compulsory);

    // Flops are exact for merged strategies (windows for padded, valid
    // extents for memoized), up to fp accumulation order.
    expect_close(r.predicted.flops + r.predicted.tc_flops,
                 r.tally.flops + r.tally.tc_flops, 1e-9, "flops");

    // DRAM traffic: predicted is compulsory-only; observed adds capacity
    // misses and line-granularity rounding, hence a stated tolerance.
    const i64 line = run.machine.line_bytes;
    expect_close(static_cast<double>(r.predicted.bytes_moved()),
                 static_cast<double>(r.txns.dram() * line), bytes_tol,
                 "bytes_moved");

    // Modeled time comes from the same §4 breakdown on both sides.
    const CostModel cost(run.machine);
    const double observed_s =
        cost.breakdown(r.txns, r.tally, r.plan.rho).total();
    expect_close(r.predicted.seconds, observed_s, bytes_tol, "seconds");
  }
  EXPECT_GT(modeled, 0);
}

TEST(ObsProfile, GoldenPaddedPrediction) {
  check_golden(Strategy::kPadded, 0.35);
}

TEST(ObsProfile, GoldenMemoizedPrediction) {
  check_golden(Strategy::kMemoized, 0.35);
}

TEST(ObsProfile, PredictionOffByDefault) {
  EngineOptions options;
  const ModelRun run = run_model(build_conv_chain_2d(2, 1, 18, 2), options);
  for (const SubgraphReport& r : run.result.reports) {
    EXPECT_FALSE(r.predicted.modeled);
    EXPECT_EQ(r.predicted.invocations, 0);
  }
}

// ----------------------------------------------------------- Run report

TEST(ObsReport, SchemaValidatesAndRoundTrips) {
  reset_obs();
  EngineOptions options;
  options.profile = true;
  const Graph graph = build_conv_chain_2d(3, 1, 20, 2);
  const ModelRun run = run_model(graph, options);

  const Json report =
      obs::make_run_report(graph, run.result, run.machine, true);
  ASSERT_TRUE(obs::validate_run_report(report).ok())
      << obs::validate_run_report(report).to_string();

  // Survives serialization: parse back and validate again.
  Result<Json> back = Json::parse(report.dump(1));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(obs::validate_run_report(back.value()).ok());
  EXPECT_TRUE(back.value() == report);

  // The human-facing table renders one row per subgraph.
  const std::string table = obs::report_table(report);
  EXPECT_NE(table.find("predicted vs observed"), std::string::npos);
  for (const SubgraphReport& r : run.result.reports) {
    EXPECT_NE(table.find(graph.node(r.plan.sg.terminal()).name),
              std::string::npos);
  }

  // Embedded metrics snapshot carries the engine counters.
  const Json* metrics_snap = report.find("metrics");
  ASSERT_NE(metrics_snap, nullptr);
  EXPECT_NE(metrics_snap->find("engine.subgraphs"), nullptr);
}

TEST(ObsReport, ValidatorRejectsMalformedReports) {
  EXPECT_FALSE(obs::validate_run_report(Json()).ok());
  Json wrong = Json::object();
  wrong.set("schema", "not-a-report");
  const Status unknown = obs::validate_run_report(wrong);
  EXPECT_FALSE(unknown.ok());
  // An unrecognized schema version is a *named* failure, distinct from
  // structural breakage, so callers can branch on forward-compat.
  EXPECT_EQ(unknown.code(), StatusCode::kUnknownSchema);

  Json missing = Json::object();
  missing.set("schema", "brickdl-run-report-v1");
  const Status structural = obs::validate_run_report(missing);
  EXPECT_FALSE(structural.ok());
  EXPECT_EQ(structural.code(), StatusCode::kInvalidGraph);
}

// ------------------------------------------------------------ Flow links

TEST(ObsTrace, FlowEventsExportAndValidate) {
  reset_obs();
  obs::Tracer::instance().set_enabled(true);
  {
    obs::TraceSpan producer("serve", "flush");
    obs::Tracer::flow("serve", "req", 42, 's');
  }
  {
    obs::TraceSpan relay("serve", "batch");
    obs::Tracer::flow("serve", "req", 42, 't');
  }
  {
    obs::TraceSpan consumer("serve", "finish");
    obs::Tracer::flow("serve", "req", 42, 'f');
  }
  obs::Tracer::instance().set_enabled(false);

  const Json trace = obs::Tracer::instance().export_chrome_trace();
  ASSERT_TRUE(obs::validate_chrome_trace(trace).ok())
      << obs::validate_chrome_trace(trace).to_string();

  int starts = 0, steps = 0, finishes = 0;
  for (const Json& e : trace.find("traceEvents")->elements()) {
    const std::string& ph = e.find("ph")->str();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    ASSERT_NE(e.find("id"), nullptr);
    EXPECT_EQ(e.find("id")->integer(), 42);
    if (ph == "s") ++starts;
    if (ph == "t") ++steps;
    if (ph == "f") {
      ++finishes;
      // Terminating flow events must bind to the enclosing slice.
      ASSERT_NE(e.find("bp"), nullptr);
      EXPECT_EQ(e.find("bp")->str(), "e");
    }
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(finishes, 1);
}

TEST(ObsTrace, ValidatorRejectsFlowEventWithoutId) {
  Json bad = Json::object();
  Json events = Json::array();
  Json e = Json::object();
  e.set("name", "req");
  e.set("cat", "serve");
  e.set("ph", "s");
  e.set("ts", 1.0);
  e.set("pid", i64{1});
  e.set("tid", i64{1});
  events.push_back(std::move(e));
  bad.set("traceEvents", std::move(events));
  const Status status = obs::validate_chrome_trace(bad);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidGraph);
}

// ------------------------------------------------------------- Event log

TEST(ObsEvents, RecordSnapshotRoundTrip) {
  obs::EventLog log(64);
  log.record(obs::ServeEvent::kAdmit, 7, 3, 0);
  log.record(obs::ServeEvent::kShedOverload, 8, 12, 0);
  log.record(obs::ServeEvent::kBreakerOpen, 0, 4, 1);
  EXPECT_EQ(log.total(), 3u);

  const std::vector<obs::EventRecord> tail = log.snapshot_last(10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].kind, obs::ServeEvent::kAdmit);
  EXPECT_EQ(tail[0].request_id, 7u);
  EXPECT_EQ(tail[0].a, 3);
  EXPECT_EQ(tail[1].kind, obs::ServeEvent::kShedOverload);
  EXPECT_EQ(tail[2].kind, obs::ServeEvent::kBreakerOpen);
  EXPECT_LT(tail[0].seq, tail[1].seq);
  EXPECT_LT(tail[1].seq, tail[2].seq);
  EXPECT_LE(tail[0].ts_ns, tail[2].ts_ns);

  const Json doc = log.to_json(10);
  const Json* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->elements()[0].find("event")->str(), "admit");
  EXPECT_EQ(events->elements()[1].find("event")->str(), "shed.overload");
  EXPECT_EQ(events->elements()[2].find("event")->str(), "breaker.open");
}

TEST(ObsEvents, ConcurrentWritersNeverTearSnapshots) {
  // 8 writers lap a small ring while a reader snapshots continuously. Every
  // accepted record must be internally consistent (payload fields encode the
  // writer id) and seqs must be strictly increasing within a snapshot.
  obs::EventLog log(128);
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<u64> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<obs::EventRecord> snap = log.snapshot_last(64);
      u64 prev_seq = 0;
      for (const obs::EventRecord& r : snap) {
        if (r.seq <= prev_seq) torn.fetch_add(1);
        prev_seq = r.seq;
        // Writer w records (request_id=w, a=w*2, b=w*3): any mismatch is a
        // torn read the seqlock should have rejected.
        const i64 w = static_cast<i64>(r.request_id);
        if (r.a != w * 2 || r.b != w * 3) torn.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.record(obs::ServeEvent::kEnqueue, static_cast<u64>(w), w * 2,
                   w * 3);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(log.total(), static_cast<u64>(kWriters) * kPerWriter);
  // Quiescent ring: a full snapshot is coherent and dense at the tail.
  const std::vector<obs::EventRecord> snap = log.snapshot_last(128);
  EXPECT_EQ(snap.size(), 128u);
  EXPECT_EQ(snap.back().seq, static_cast<u64>(kWriters) * kPerWriter);
}

// -------------------------------------------------------------- Exporter

TEST(ObsExporter, PrometheusTextMatchesRegistryExactly) {
  obs::MetricsRegistry reg;
  reg.counter("serve.completed").add(41);
  reg.gauge("serve.depth").set(2.5);
  obs::Histogram& h = reg.histogram("serve.request_us");
  for (i64 v : {3, 3, 40, 1000}) h.observe(v);

  const std::string text = obs::prometheus_text(reg);

  // Parse the exposition back into name -> value.
  std::map<std::string, double> series;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }

  // Dotted names are mangled; values match the instruments exactly.
  EXPECT_EQ(series.at("serve_completed"), 41.0);
  EXPECT_EQ(series.at("serve_depth"), 2.5);
  EXPECT_EQ(series.at("serve_request_us_count"), 4.0);
  EXPECT_EQ(series.at("serve_request_us_sum"), 1046.0);
  EXPECT_EQ(series.at("serve_request_us_bucket{le=\"+Inf\"}"), 4.0);

  // Cumulative buckets reconstruct the histogram: each non-empty bucket
  // appears with the exact log-linear upper bound and running total.
  i64 running = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    const i64 c = h.bucket_count(b);
    if (c == 0) continue;
    running += c;
    const std::string key = "serve_request_us_bucket{le=\"" +
                            std::to_string(obs::Histogram::bucket_upper(b)) +
                            "\"}";
    ASSERT_TRUE(series.count(key)) << key;
    EXPECT_EQ(series.at(key), static_cast<double>(running)) << key;
  }

  // Nothing in the exposition beyond the three instruments' series.
  for (const auto& [name, value] : series) {
    EXPECT_TRUE(name.rfind("serve_completed", 0) == 0 ||
                name.rfind("serve_depth", 0) == 0 ||
                name.rfind("serve_request_us", 0) == 0)
        << name;
  }
}

TEST(ObsExporter, JsonlSnapshotsAndSinkDeliverSchema) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "brickdl_exporter_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string jsonl = (dir / "metrics.jsonl").string();
  const std::string prom = (dir / "metrics.prom").string();

  obs::MetricsRegistry reg;
  reg.counter("test.ticks").add(5);

  std::atomic<int> sink_calls{0};
  obs::MetricsExporter::Options options;
  options.interval_ms = 10;
  options.jsonl_path = jsonl;
  options.prom_path = prom;
  options.sink = [&](const std::string& line) {
    ++sink_calls;
    Result<Json> doc = Json::parse(line);
    ASSERT_TRUE(doc.ok()) << doc.status().to_string();
    EXPECT_EQ(doc.value().find("schema")->str(), "brickdl-metrics-v1");
  };
  {
    obs::MetricsExporter exporter(options, &reg);
    exporter.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(35));
    reg.counter("test.ticks").add(2);
    exporter.stop();  // final snapshot
    EXPECT_GE(exporter.snapshots_taken(), 2u);
    EXPECT_EQ(static_cast<u64>(sink_calls.load()),
              exporter.snapshots_taken());
  }

  // Each JSONL line parses; seq increases; the last reflects the final add.
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::string line;
  i64 prev_seq = 0;
  Json last;
  size_t lines = 0;
  while (std::getline(in, line)) {
    Result<Json> doc = Json::parse(line);
    ASSERT_TRUE(doc.ok()) << doc.status().to_string();
    const i64 seq = doc.value().find("seq")->integer();
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
    last = std::move(doc.value());
    ++lines;
  }
  ASSERT_GE(lines, 2u);
  EXPECT_EQ(last.find("metrics")->find("test.ticks")->integer(), 7);

  // The Prometheus textfile holds the final state too.
  std::ifstream pin(prom);
  ASSERT_TRUE(pin.good());
  std::stringstream buffer;
  buffer << pin.rdbuf();
  EXPECT_NE(buffer.str().find("test_ticks 7"), std::string::npos)
      << buffer.str();
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------- Flight

TEST(ObsFlight, RecordRoundTripsAndValidates) {
  reset_obs();
  obs::events().clear();
  obs::events().record(obs::ServeEvent::kAdmit, 9, 1, 0);
  obs::events().record(obs::ServeEvent::kBreakerOpen, 9, 4, 1);
  obs::metrics().counter("serve.breaker.opens").add(1);

  const Json record = obs::make_flight_record(
      obs::FlightTrigger::kBreakerOpen, 9, "test trigger");
  ASSERT_TRUE(obs::validate_flight_record(record).ok())
      << obs::validate_flight_record(record).to_string();
  EXPECT_EQ(record.find("trigger")->str(), "breaker.open");
  EXPECT_EQ(record.find("request")->integer(), 9);
  EXPECT_EQ(record.find("events")->size(), 2u);
  // Both logged events concern request 9, so the filtered view holds both.
  EXPECT_EQ(record.find("request_events")->size(), 2u);
  EXPECT_EQ(
      record.find("metrics")->find("serve.breaker.opens")->integer(), 1);

  // Survives serialization.
  Result<Json> back = Json::parse(record.dump(1));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(obs::validate_flight_record(back.value()).ok());

  // Unknown schema versions are the named kUnknownSchema failure.
  Json future = record;
  future.set("schema", "brickdl-flight-v2");
  const Status status = obs::validate_flight_record(future);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnknownSchema);

  // Structural breakage stays kInvalidGraph.
  Json broken = record;
  broken.set("events", "not-an-array");
  EXPECT_EQ(obs::validate_flight_record(broken).code(),
            StatusCode::kInvalidGraph);
  obs::events().clear();
}

TEST(ObsFlight, RecorderDumpsUnderPerTriggerCap) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "brickdl_flight_test";
  std::filesystem::remove_all(dir);

  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.reset();
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.dump(obs::FlightTrigger::kFailure, 1, "disabled"), "");
  EXPECT_EQ(recorder.records_written(), 0u);
  EXPECT_EQ(recorder.records_suppressed(), 1u);

  obs::FlightRecorder::Options options;
  options.dir = dir.string();
  options.max_records = 1;  // per trigger kind
  recorder.configure(options);
  ASSERT_TRUE(recorder.enabled());

  const std::string p1 =
      recorder.dump(obs::FlightTrigger::kDegradedRun, 2, "first degraded");
  ASSERT_FALSE(p1.empty());
  // Cap reached for kDegradedRun: second dump is suppressed...
  EXPECT_EQ(
      recorder.dump(obs::FlightTrigger::kDegradedRun, 3, "second degraded"),
      "");
  // ...but a breaker-open record still gets through (per-trigger budget).
  const std::string p2 =
      recorder.dump(obs::FlightTrigger::kBreakerOpen, 4, "breaker");
  ASSERT_FALSE(p2.empty());
  EXPECT_EQ(recorder.records_written(), 2u);
  EXPECT_EQ(recorder.records_suppressed(), 2u);

  for (const std::string& path : {p1, p2}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<Json> doc = Json::parse(buffer.str());
    ASSERT_TRUE(doc.ok()) << doc.status().to_string();
    EXPECT_TRUE(obs::validate_flight_record(doc.value()).ok())
        << obs::validate_flight_record(doc.value()).to_string();
  }

  recorder.reset();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ Calibration

/// Synthesize a corpus whose measured responses were generated *exactly* by
/// `truth`: each per-term response is what the stock-priced regression would
/// see if the hardware really ran at the planted constants. The fit must then
/// recover `truth` (the regression is exact, no noise).
obs::CalibrationSample planted_sample(int i,
                                      const obs::CalibratedConstants& truth,
                                      const MachineParams& stock) {
  obs::CalibrationSample s;
  // Diverse, linearly independent regressors across the corpus so the 3x3
  // compute system is well conditioned.
  s.pred_bytes = 1e6 * (1 + i) * (1 + i);
  s.pred_atomics = 1e3 * (1 + (i * 7) % 5);
  s.pred_invocations = 100.0 + 37.0 * i * i;
  s.pred_flops = 1e9 * (1.0 + 0.6 * i);
  s.pred_tc_flops = (i % 2 == 0) ? 4e8 * (1 + i) : 9e8;
  s.rho = 0.0;  // saturated: no utilization stretch

  // Invert each regression: observed counters that price (at stock) to the
  // per-term seconds `truth` would have produced.
  s.obs_bytes = s.pred_bytes * stock.hbm_bandwidth / truth.effective_bandwidth;
  s.obs_atomics = s.pred_atomics * truth.t_atomic / stock.t_atomic;
  s.obs_invocations = 0.0;
  s.obs_tc_flops = 0.0;
  s.obs_flops = stock.flops_per_second *
                (s.pred_invocations * truth.t_launch +
                 s.pred_flops / truth.flops_per_second +
                 s.pred_tc_flops / truth.tensor_core_flops_per_second);
  s.obs_seconds =
      obs::CalibrationCorpus::predicted_seconds(s, truth, stock.num_sms);
  s.wall_seconds = truth.wall_scale * s.obs_seconds;
  return s;
}

TEST(ObsCalibrate, FitRecoversPlantedConstants) {
  const MachineParams stock = MachineParams::a100();
  obs::CalibratedConstants truth;
  truth.effective_bandwidth = 0.6e12;  // capacity misses eat 60% of stock BW
  truth.t_atomic = 2.5 * stock.t_atomic;
  truth.t_launch = 0.4 * stock.t_launch;
  truth.flops_per_second = 0.7 * stock.flops_per_second;
  truth.tensor_core_flops_per_second =
      1.3 * stock.tensor_core_flops_per_second;
  truth.wall_scale = 2.0;

  obs::CalibrationCorpus corpus;
  for (int i = 0; i < 6; ++i) {
    corpus.add_sample(planted_sample(i, truth, stock));
  }
  Result<obs::CalibrationFit> fit = corpus.fit(stock);
  ASSERT_TRUE(fit.ok()) << fit.status().to_string();
  const obs::CalibratedConstants& c = fit.value().constants;
  EXPECT_NEAR(c.effective_bandwidth / truth.effective_bandwidth, 1.0, 1e-6);
  EXPECT_NEAR(c.t_atomic / truth.t_atomic, 1.0, 1e-6);
  EXPECT_NEAR(c.t_launch / truth.t_launch, 1.0, 1e-6);
  EXPECT_NEAR(c.flops_per_second / truth.flops_per_second, 1.0, 1e-6);
  EXPECT_NEAR(c.tensor_core_flops_per_second /
                  truth.tensor_core_flops_per_second,
              1.0, 1e-6);
  EXPECT_NEAR(c.wall_scale, 2.0, 1e-6);

  // The planted corpus is exactly explainable, so the calibrated residual
  // collapses while the stock one does not (the constants genuinely moved).
  EXPECT_LT(fit.value().calibrated_mean_rel_error, 1e-6);
  EXPECT_GT(fit.value().stock_mean_rel_error, 0.1);
}

TEST(ObsCalibrate, CalibratedResidualNeverWorseThanStock) {
  // Small, skewed corpora are where naive per-term least squares can compose
  // *worse* than stock on total seconds; the fit's take-best selection must
  // never let that reach the emitted constants.
  const MachineParams stock = MachineParams::a100();
  obs::CalibrationCorpus corpus;
  obs::CalibrationSample a;
  a.pred_bytes = 5e6;
  a.pred_invocations = 200;
  a.pred_flops = 2e9;
  a.obs_bytes = 9e6;
  a.obs_atomics = 4e4;  // conflict-heavy: no predicted atomics at all
  a.obs_invocations = 200;
  a.obs_flops = 2e9;
  a.obs_seconds = 1e-4;
  a.wall_seconds = 3e-4;
  corpus.add_sample(a);
  obs::CalibrationSample b = a;
  b.pred_bytes = 1e5;
  b.obs_bytes = 8e6;
  b.obs_seconds = 2e-6;
  corpus.add_sample(b);

  Result<obs::CalibrationFit> fit = corpus.fit(stock);
  ASSERT_TRUE(fit.ok()) << fit.status().to_string();
  EXPECT_TRUE(fit.value().constants.valid());
  EXPECT_LE(fit.value().calibrated_mean_rel_error,
            fit.value().stock_mean_rel_error);
}

TEST(ObsCalibrate, EmptyCorpusIsInvalidOptions) {
  const Result<obs::CalibrationFit> fit =
      obs::CalibrationCorpus().fit(MachineParams::a100());
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidOptions);
}

TEST(ObsCalibrate, JsonRoundTripsExactlyAndValidates) {
  const MachineParams stock = MachineParams::a100();
  obs::CalibratedConstants truth;
  truth.effective_bandwidth = 0.5e12;
  truth.t_atomic = 2.0 * stock.t_atomic;
  truth.t_launch = 0.5 * stock.t_launch;
  truth.flops_per_second = 0.8 * stock.flops_per_second;
  truth.tensor_core_flops_per_second = stock.tensor_core_flops_per_second;
  truth.wall_scale = 1.75;
  obs::CalibrationCorpus corpus;
  for (int i = 0; i < 5; ++i) {
    corpus.add_sample(planted_sample(i, truth, stock));
  }
  Result<obs::CalibrationFit> fit = corpus.fit(stock);
  ASSERT_TRUE(fit.ok());

  const Json doc = fit.value().to_json();
  ASSERT_TRUE(obs::validate_calibration(doc).ok())
      << obs::validate_calibration(doc).to_string();

  // %.17g numbers survive dump -> parse bit-exactly.
  Result<Json> back = Json::parse(doc.dump(1));
  ASSERT_TRUE(back.ok());
  Result<obs::CalibratedConstants> parsed =
      obs::calibration_from_json(back.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const obs::CalibratedConstants& c = fit.value().constants;
  EXPECT_EQ(parsed.value().effective_bandwidth, c.effective_bandwidth);
  EXPECT_EQ(parsed.value().t_atomic, c.t_atomic);
  EXPECT_EQ(parsed.value().t_launch, c.t_launch);
  EXPECT_EQ(parsed.value().flops_per_second, c.flops_per_second);
  EXPECT_EQ(parsed.value().tensor_core_flops_per_second,
            c.tensor_core_flops_per_second);
  EXPECT_EQ(parsed.value().wall_scale, c.wall_scale);
}

TEST(ObsCalibrate, ValidatorNamesSchemaAndStructuralFailures) {
  Json wrong = Json::object();
  wrong.set("schema", "brickdl-calibration-v999");
  EXPECT_EQ(obs::validate_calibration(wrong).code(),
            StatusCode::kUnknownSchema);

  Json missing = Json::object();
  missing.set("schema", "brickdl-calibration-v1");
  EXPECT_EQ(obs::validate_calibration(missing).code(),
            StatusCode::kInvalidGraph);
  EXPECT_EQ(obs::calibration_from_json(missing).status().code(),
            StatusCode::kInvalidGraph);
}

TEST(ObsCalibrate, AddReportExtractsCleanModeledSubgraphs) {
  reset_obs();
  EngineOptions options;
  options.profile = true;
  const Graph graph = build_conv_chain_2d(3, 1, 24, 2);
  const ModelRun run = run_model(graph, options);
  const Json report =
      obs::make_run_report(graph, run.result, run.machine, true);

  obs::CalibrationCorpus corpus;
  ASSERT_TRUE(corpus.add_report(report).ok());
  EXPECT_GT(corpus.size(), 0);
  for (const obs::CalibrationSample& s : corpus.samples()) {
    EXPECT_GT(s.obs_seconds, 0.0);
    EXPECT_GE(s.wall_seconds, 0.0);
    EXPECT_GT(s.pred_bytes, 0.0);
  }

  // A corpus built from a real profiled run must fit to usable constants
  // whose residual never regresses past stock.
  Result<obs::CalibrationFit> fit = corpus.fit(run.machine);
  ASSERT_TRUE(fit.ok()) << fit.status().to_string();
  EXPECT_TRUE(fit.value().constants.valid());
  EXPECT_LE(fit.value().calibrated_mean_rel_error,
            fit.value().stock_mean_rel_error);

  // Not a run report at all: named reject, corpus unchanged.
  const i64 before = corpus.size();
  Json bogus = Json::object();
  bogus.set("schema", "nope");
  EXPECT_EQ(corpus.add_report(bogus).code(), StatusCode::kUnknownSchema);
  EXPECT_EQ(corpus.size(), before);
}

}  // namespace
}  // namespace brickdl
