// Cross-subgraph dataflow pipelining suite (label `pipeline`, DESIGN.md §14).
//
// The core contract under test: chains of consecutive memoized subgraphs
// executed through one shared tag table produce outputs *bit-identical* to
// the strict barriered schedule — pipelining is a scheduling decision, never
// a numerics decision — while the chain's protocol stats prove real
// cross-boundary overlap happened (downstream bricks claimed upstream deps
// before the upstream subgraph finished). The resilience tests extend the §7
// exactly-once guarantee across the retired barrier: a worker abandoned
// mid-chain on an *upstream* stage's brick is repaired by the watchdog and
// the whole chain still completes exactly-once. The serving tests lift the
// same overlap to cross-batch pipelining (max_inflight_batches > 1).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/rewrite.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "testing/fault_injection.hpp"
#include "testing/reference_eager.hpp"

namespace brickdl {
namespace {

using serve::RequestResult;
using serve::ServeOptions;
using serve::Server;

constexpr u64 kWeightSeed = 404;

/// Six 3x3 convs at 32x32x8: under max_layers=2 the paper partitioner cuts
/// this into exactly three two-layer subgraphs, all planned memoized with
/// rank-3 bricks — one three-member chain once pipelining is on.
Graph chain_model() { return build_conv_chain_2d(6, 1, 32, 8); }

/// Same backbone at 24x24x4: the tail subgraph plans vendor, so the chain
/// is {memoized, memoized} with a vendor barrier point behind it.
Graph mixed_model() { return build_conv_chain_2d(6, 1, 24, 4); }

EngineOptions chain_options(bool pipeline, int workers = 4,
                            bool parallel = false) {
  EngineOptions eo;
  eo.partition.max_layers = 2;
  eo.force_strategy = Strategy::kMemoized;
  eo.memo_workers = workers;
  eo.memo_parallel = parallel;
  eo.pipeline_subgraphs = pipeline;
  return eo;
}

Tensor random_input(const Graph& g, u64 seed) {
  Tensor t(g.node(0).out_shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

Tensor reference_output(const Graph& g, const Tensor& input, WeightStore& ws) {
  const auto outs = run_graph_reference(g, input, ws);
  return outs[static_cast<size_t>(g.outputs()[0])];
}

struct EngineRun {
  Tensor output;
  std::vector<SubgraphReport> reports;
};

EngineRun run_engine(const Graph& g, const Tensor& input, WeightStore& ws,
                     const EngineOptions& eo) {
  Engine engine(g, eo);
  NumericBackend backend(g, ws, eo.memo_workers);
  auto result = engine.run_checked(backend, &input);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  EngineRun run;
  run.output = backend.read(result.value().output);
  run.reports = std::move(result.value().reports);
  return run;
}

i64 counter_value(const std::string& name) {
  return obs::metrics().counter(name).value();
}

}  // namespace

// Acceptance: the partitioner's three consecutive memoized subgraphs run as
// one chain, every member's report says so, and the output is bit-identical
// to both the barriered schedule and the node-by-node reference kernels.
TEST(PipelineChain, ChainedRunBitIdenticalToBarriered) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 31);
  const Tensor reference = reference_output(g, input, ws);

  const i64 chains_before = counter_value("engine.pipeline.chains");
  const EngineRun pipelined = run_engine(g, input, ws, chain_options(true));
  const EngineRun barriered = run_engine(g, input, ws, chain_options(false));

  ASSERT_EQ(pipelined.reports.size(), 3u);
  for (const SubgraphReport& report : pipelined.reports) {
    EXPECT_TRUE(report.pipelined);
    EXPECT_EQ(report.chain_len, 3);
    EXPECT_EQ(report.executed, Strategy::kMemoized);
    ASSERT_EQ(report.attempts.size(), 1u);
    EXPECT_TRUE(report.attempts[0].status.ok());
  }
  for (const SubgraphReport& report : barriered.reports) {
    EXPECT_FALSE(report.pipelined);
  }
  EXPECT_EQ(counter_value("engine.pipeline.chains"), chains_before + 1);
  EXPECT_EQ(counter_value("engine.pipeline.chain_subgraphs") % 3, 0);

  // Bit-identical, not merely close: same kernels, same memo slots, only
  // the schedule differs.
  EXPECT_EQ(max_abs_diff(pipelined.output, barriered.output), 0.0);
  EXPECT_TRUE(allclose(pipelined.output, reference, 2e-4));
}

// The overlap is real, not nominal: with several virtual workers the chain's
// downstream roots start at tick 0 and claim upstream deps before the
// upstream stage completes. The lead report aggregates those claims.
TEST(PipelineChain, CrossBoundaryClaimsObserved) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 32);

  const EngineRun run = run_engine(g, input, ws, chain_options(true, 8));
  ASSERT_EQ(run.reports.size(), 3u);
  EXPECT_GT(run.reports[0].memo.cross_boundary_claims, 0);
  // Chain aggregates live on the lead member; the rest stay zeroed.
  EXPECT_GT(run.reports[0].memo.bricks_computed, 0);
  EXPECT_EQ(run.reports[1].memo.bricks_computed, 0);
  EXPECT_EQ(run.reports[1].wall_seconds, 0.0);
}

// The same bit-exactness holds for the parallel driver across worker counts
// that do and don't divide the root count evenly.
TEST(PipelineChain, ParallelDriverBitIdenticalAcrossWorkerCounts) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 33);

  const EngineRun barriered = run_engine(g, input, ws, chain_options(false));
  for (int workers : {2, 5, 8}) {
    const EngineRun run =
        run_engine(g, input, ws, chain_options(true, workers, true));
    EXPECT_EQ(max_abs_diff(run.output, barriered.output), 0.0)
        << "workers=" << workers;
    EXPECT_TRUE(run.reports[0].pipelined) << "workers=" << workers;
  }
}

// Non-memoized subgraphs are barrier points: the mixed model pipelines its
// two memoized members and runs the vendor tail barriered, outputs intact.
TEST(PipelineChain, VendorSubgraphIsBarrierPoint) {
  const Graph g = mixed_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 34);
  const Tensor reference = reference_output(g, input, ws);

  const EngineRun run = run_engine(g, input, ws, chain_options(true));
  ASSERT_EQ(run.reports.size(), 3u);
  EXPECT_TRUE(run.reports[0].pipelined);
  EXPECT_TRUE(run.reports[1].pipelined);
  EXPECT_EQ(run.reports[0].chain_len, 2);
  EXPECT_FALSE(run.reports[2].pipelined);
  EXPECT_EQ(run.reports[2].executed, Strategy::kVendor);
  EXPECT_TRUE(allclose(run.output, reference, 2e-4));
}

// The escape hatch and the profile implication both restore the strict
// barriered schedule without changing a bit of output.
TEST(PipelineChain, EscapeHatchAndProfileDisablePipelining) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 35);

  EngineOptions profiled = chain_options(true);
  profiled.profile = true;
  const EngineRun with_profile = run_engine(g, input, ws, profiled);
  for (const SubgraphReport& report : with_profile.reports) {
    EXPECT_FALSE(report.pipelined);
  }

  const EngineRun pipelined = run_engine(g, input, ws, chain_options(true));
  EXPECT_EQ(max_abs_diff(with_profile.output, pipelined.output), 0.0);
}

// Idle-tail accounting: both drivers report a sane straggler fraction, and
// only the chain's lead member carries it.
TEST(PipelineChain, IdleTailStatsPopulated) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 36);

  for (bool parallel : {false, true}) {
    const EngineRun run =
        run_engine(g, input, ws, chain_options(true, 4, parallel));
    const MemoizedExecutor::Stats& stats = run.reports[0].memo;
    EXPECT_GE(stats.idle_tail_fraction, 0.0) << "parallel=" << parallel;
    EXPECT_LE(stats.idle_tail_fraction, 1.0) << "parallel=" << parallel;
    EXPECT_GE(stats.idle_tail_seconds, 0.0) << "parallel=" << parallel;
  }
}

// Resilience across the retired barrier (DESIGN.md §7 meets §14): a worker
// parks forever while holding an *upstream-stage* brick mid-chain. The
// watchdog reclaims the abandoned InProgress tag, a surviving worker
// recomputes it, and the chain completes exactly-once with the correct
// output — no fallback, no double compute.
void check_cross_boundary_stall_reclaimed(bool parallel) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 37);
  const Tensor reference = reference_output(g, input, ws);

  ScopedFaultInjection scoped(/*seed=*/13);
  FaultSpec spec;
  spec.kind = FaultKind::kWorkerStall;
  spec.node_id = 1;  // conv1: first stage of the chain
  spec.max_fires = 1;
  scoped.injector().arm(spec);

  EngineOptions eo = chain_options(true, 4, parallel);
  eo.memo_watchdog = {64, 200};  // reclaim in milliseconds, not seconds
  const EngineRun run = run_engine(g, input, ws, eo);

  ASSERT_EQ(run.reports.size(), 3u);
  // The chain itself absorbed the fault — no barriered fallback re-run.
  EXPECT_TRUE(run.reports[0].pipelined);
  ASSERT_EQ(run.reports[0].attempts.size(), 1u);
  EXPECT_TRUE(run.reports[0].attempts[0].status.ok());
  EXPECT_EQ(run.reports[0].memo.stalled_workers, 1);
  EXPECT_GE(run.reports[0].memo.reclaims, 1);
  EXPECT_TRUE(allclose(run.output, reference, 2e-4));
}

TEST(PipelineResilience, VirtualCrossBoundaryStallReclaimed) {
  check_cross_boundary_stall_reclaimed(/*parallel=*/false);
}

// The TSan target: a real runner thread parks mid-chain, other threads'
// watchdogs repair its cross-stage tags with CAS — race-free.
TEST(PipelineResilience, ParallelCrossBoundaryStallReclaimed) {
  check_cross_boundary_stall_reclaimed(/*parallel=*/true);
}

// ---- cross-batch pipelining (serving) ----

namespace {

Graph serve_model() { return build_conv_chain_2d(3, 1, 16, 2); }

Tensor random_request(const Graph& model, i64 rows, u64 seed) {
  Dims dims = model.node(0).out_shape.dims;
  dims[0] = rows;
  Tensor t(dims);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

/// Ground truth: a direct solo engine run on the rebatched graph with a
/// fresh same-seed WeightStore (weights are (seed, node name) keyed).
Tensor solo_reference(const Graph& model, const Tensor& input,
                      const EngineOptions& eopts) {
  Result<Graph> rebatched = rebatch_graph(model, input.dims()[0]);
  EXPECT_TRUE(rebatched.ok()) << rebatched.status().to_string();
  Graph graph = rebatched.take();
  WeightStore ws(kWeightSeed);
  Engine engine(graph, eopts);
  NumericBackend backend(graph, ws, 4);
  auto out = engine.run_batched_checked(backend, {&input});
  EXPECT_TRUE(out.ok()) << out.status().to_string();
  return std::move(out.value()[0]);
}

}  // namespace

// Acceptance: with max_inflight_batches=2 the scheduler dispatches batch
// B's engine run while batch A's is still executing, every request's output
// stays bit-identical to its sequential solo run, and the dispatch counter
// proves the runner pool actually carried runs.
TEST(PipelineServe, OverlappedBatchesBitIdenticalToSolo) {
  const Graph model = serve_model();
  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_wait_us = 500;
  opts.max_inflight_batches = 2;
  WeightStore ws(kWeightSeed);

  const i64 dispatches_before = counter_value("serve.pipeline.dispatches");
  constexpr int kRequests = 8;
  std::vector<Tensor> inputs;
  inputs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_request(model, 1 + (i % 3), 100 + i));
  }

  std::vector<RequestResult> results(kRequests);
  {
    Server server(model, ws, opts);
    std::vector<std::future<RequestResult>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(server.submit(inputs[static_cast<size_t>(i)]));
    }
    for (int i = 0; i < kRequests; ++i) {
      results[static_cast<size_t>(i)] = futures[static_cast<size_t>(i)].get();
    }
  }  // ~Server: shutdown drains the pipeline and joins the runner pool

  for (int i = 0; i < kRequests; ++i) {
    const RequestResult& r = results[static_cast<size_t>(i)];
    ASSERT_TRUE(r.status.ok()) << "request " << i << ": " << r.status.to_string();
    EXPECT_EQ(max_abs_diff(r.output,
                           solo_reference(model, inputs[static_cast<size_t>(i)],
                                          opts.engine)),
              0.0)
        << "request " << i;
  }
  EXPECT_GT(counter_value("serve.pipeline.dispatches"), dispatches_before);
}

// The overlap window honors the footprint budget: a budget that admits only
// one plan at a time degrades to serialized dispatch (every run still reaped
// before the next one launches), never to an over-budget pipeline — and the
// outputs remain exact.
TEST(PipelineServe, TightFootprintBudgetSerializesDispatch) {
  const Graph model = serve_model();
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 200;
  opts.max_inflight_batches = 4;
  // One modest activation's worth: two concurrent plans never fit.
  opts.footprint_budget = 1;
  WeightStore ws(kWeightSeed);

  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(random_request(model, 2, 50 + i));

  std::vector<std::future<RequestResult>> futures;
  {
    Server server(model, ws, opts);
    for (auto& input : inputs) futures.push_back(server.submit(input));
    for (int i = 0; i < 4; ++i) {
      const RequestResult r = futures[static_cast<size_t>(i)].get();
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
      EXPECT_EQ(max_abs_diff(r.output,
                             solo_reference(model, inputs[static_cast<size_t>(i)],
                                            opts.engine)),
                0.0);
    }
    futures.clear();
  }
}

// Synchronous mode (max_inflight_batches=1, the default) never constructs a
// runner pool; the classic inline path still serves exact results. Guards
// against the pipelined refactor perturbing the default configuration.
TEST(PipelineServe, DefaultSynchronousModeUnchanged) {
  const Graph model = serve_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 500;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  const Tensor input = random_request(model, 2, 77);
  const RequestResult r = server.submit(input).get();
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(max_abs_diff(r.output, solo_reference(model, input, opts.engine)),
            0.0);
}

}  // namespace brickdl
