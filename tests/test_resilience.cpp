// Resilience suite (DESIGN.md §7): the fault-injection matrix, the stall
// watchdog's tag-repair protocol, pre-flight validation, parser hardening
// against the malformed-graph corpus, and the engine's graceful-degradation
// chain. The invariant under test everywhere: an injected fault is contained
// — classified Status or recorded fallback — never a crash, never a hang.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/engine.hpp"
#include "core/memoized_executor.hpp"
#include "graph/serialize.hpp"
#include "models/models.hpp"
#include "ops/dispatch.hpp"
#include "testing/fault_injection.hpp"

namespace brickdl {
namespace {

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

// ---------------------------------------------------------------------------
// Status taxonomy.

TEST(Status, TaxonomyAndResult) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().to_string(), "kOk");

  const Status s(StatusCode::kKernelFailure, "boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kKernelFailure);
  EXPECT_EQ(s.to_string(), "kKernelFailure: boom");
  EXPECT_THROW(s.throw_if_error(), Error);
  try {
    s.throw_if_error();
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kKernelFailure);
  }

  EXPECT_STREQ(status_code_name(StatusCode::kInvalidGraph), "kInvalidGraph");
  EXPECT_STREQ(status_code_name(StatusCode::kShapeMismatch),
               "kShapeMismatch");
  EXPECT_STREQ(status_code_name(StatusCode::kBadIoMap), "kBadIoMap");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidOptions),
               "kInvalidOptions");
  EXPECT_STREQ(status_code_name(StatusCode::kExecutorStall),
               "kExecutorStall");
  EXPECT_STREQ(status_code_name(StatusCode::kBudgetExceeded),
               "kBudgetExceeded");

  Result<int> ok_result(7);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 7);
  EXPECT_EQ(ok_result.take(), 7);

  Result<int> err_result(Status(StatusCode::kBadIoMap, "missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kBadIoMap);
  EXPECT_THROW(err_result.take(), Error);
}

// ---------------------------------------------------------------------------
// Option validation (up-front, before any kernel runs).

TEST(Resilience, EngineOptionsValidated) {
  EXPECT_TRUE(validate_engine_options(EngineOptions{}).ok());

  EngineOptions bad_workers;
  bad_workers.memo_workers = 0;
  EXPECT_EQ(validate_engine_options(bad_workers).code(),
            StatusCode::kInvalidOptions);

  EngineOptions bad_tile;
  bad_tile.vendor_tile_side = 0;
  EXPECT_EQ(validate_engine_options(bad_tile).code(),
            StatusCode::kInvalidOptions);

  EngineOptions bad_side;
  bad_side.force_brick_side = 7;
  EXPECT_EQ(validate_engine_options(bad_side).code(),
            StatusCode::kInvalidOptions);

  EngineOptions bad_watchdog;
  bad_watchdog.memo_watchdog.poll_limit = 0;
  EXPECT_EQ(validate_engine_options(bad_watchdog).code(),
            StatusCode::kInvalidOptions);

  // The engine surfaces the same classification through validate()/run:
  // construction must not crash, and nothing executes.
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  Engine engine(g, bad_workers);
  EXPECT_EQ(engine.validate().code(), StatusCode::kInvalidOptions);
  WeightStore ws(5);
  NumericBackend backend(g, ws, 4);
  const auto result = engine.run_checked(backend);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidOptions);
}

// ---------------------------------------------------------------------------
// Pre-flight graph validation.

TEST(Resilience, ValidateAcceptsZooModels) {
  ModelConfig config;
  config.batch = 1;
  config.spatial = 32;
  config.width_div = 16;
  config.classes = 8;
  for (const auto& [name, builder] : model_zoo()) {
    SCOPED_TRACE(name);
    const Graph g = builder(config);  // Engine holds a reference
    Engine engine(g, {});
    EXPECT_TRUE(engine.validate().ok()) << engine.validate().to_string();
  }
}

TEST(Resilience, ValidateRejectsMultiOutputGraph) {
  Graph g;
  const int x = g.add_input("x", Shape{1, 3, 8, 8});
  g.add_relu(x, "a");
  g.add_relu(x, "b");  // second sink: two graph outputs
  Engine engine(g, {});
  const Status s = engine.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidGraph);

  WeightStore ws(5);
  NumericBackend backend(g, ws, 4);
  const auto result = engine.run_checked(backend);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidGraph);
}

TEST(Resilience, RunRejectsMisshapenBoundInput) {
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  Engine engine(g, {});
  WeightStore ws(5);
  NumericBackend backend(g, ws, 4);
  Tensor wrong(Shape{1, 3, 4, 4});  // graph expects 1x3x18x18
  const auto result = engine.run_checked(backend, &wrong);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kShapeMismatch);
}

TEST(Resilience, RunPlannedSubgraphReportsMissingIoEntry) {
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  const Subgraph sg = all_non_input_nodes(g);
  const PlannedSubgraph planned = plan_subgraph(g, sg, PartitionOptions{}, 4);

  WeightStore ws(5);
  NumericBackend backend(g, ws, 4);
  const TensorId out = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, planned.brick_extent,
      "out");

  // Empty io map: the external input (node 0) is unmapped. This used to be
  // an unordered_map::at throw deep inside an executor.
  const std::unordered_map<int, TensorId> empty;
  const Status s = run_planned_subgraph_checked(g, planned, backend, empty,
                                                out, EngineOptions{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kBadIoMap);
  EXPECT_NE(s.message().find("node 0"), std::string::npos) << s.message();
}

// ---------------------------------------------------------------------------
// Fault matrix: (kernel failure | NaN poison) x (padded | memoized-virtual |
// memoized-parallel | padded-parallel). Every cell must recover through the
// degradation chain and still produce reference-exact output. The parallel
// modes run every rung — memoized, padded bricks, vendor tiles — on the
// run's thread pool.

struct EngineMode {
  const char* name;
  Strategy strategy;
  bool parallel;
};

constexpr EngineMode kModes[] = {
    {"padded", Strategy::kPadded, false},
    {"memoized-virtual", Strategy::kMemoized, false},
    {"memoized-parallel", Strategy::kMemoized, true},
    {"padded-parallel", Strategy::kPadded, true},
};

EngineOptions resilient_options(const EngineMode& mode) {
  EngineOptions options;
  options.partition.cost_aware = false;  // merge even at test scale
  options.force_strategy = mode.strategy;
  options.memo_workers = 4;
  options.memo_parallel = mode.parallel;
  options.memo_watchdog = {64, 200};
  options.verify_finite = true;
  return options;
}

void check_fault_recovered(const EngineMode& mode, FaultKind kind,
                           StatusCode expected_code) {
  const Graph g = build_conv_chain_2d(3, 1, 20, 3);
  WeightStore ws(99);
  Tensor input(g.node(0).out_shape);
  Rng rng(21);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  ScopedFaultInjection scoped(/*seed=*/13);
  FaultSpec spec;
  spec.kind = kind;
  scoped.injector().arm(spec);  // fire once, on the first kernel

  NumericBackend backend(g, ws, 4);
  Engine engine(g, resilient_options(mode));
  const auto result = engine.run_checked(backend, &input);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GE(scoped.injector().fires(kind), 1);

  // Some subgraph must have degraded: first attempt failed with the
  // expected classification, a later attempt succeeded, and the report
  // records the swap.
  bool degraded = false;
  for (const SubgraphReport& report : result.value().reports) {
    ASSERT_FALSE(report.attempts.empty());
    EXPECT_TRUE(report.attempts.back().status.ok());
    EXPECT_EQ(report.attempts.back().strategy, report.executed);
    if (report.attempts.size() > 1) {
      degraded = true;
      EXPECT_EQ(report.attempts.front().strategy, report.plan.strategy);
      EXPECT_EQ(report.attempts.front().status.code(), expected_code)
          << report.attempts.front().status.to_string();
      EXPECT_NE(report.executed, report.plan.strategy);
    }
  }
  EXPECT_TRUE(degraded);

  const int output = g.outputs()[0];
  EXPECT_TRUE(allclose(backend.read(result.value().output),
                       reference[static_cast<size_t>(output)], 2e-4));
}

TEST(ResilienceFaultMatrix, KernelFailurePadded) {
  check_fault_recovered(kModes[0], FaultKind::kKernelFailure,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, KernelFailureMemoizedVirtual) {
  check_fault_recovered(kModes[1], FaultKind::kKernelFailure,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, KernelFailureMemoizedParallel) {
  check_fault_recovered(kModes[2], FaultKind::kKernelFailure,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, NaNPoisonPadded) {
  check_fault_recovered(kModes[0], FaultKind::kNaNPoison,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, NaNPoisonMemoizedVirtual) {
  check_fault_recovered(kModes[1], FaultKind::kNaNPoison,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, NaNPoisonMemoizedParallel) {
  check_fault_recovered(kModes[2], FaultKind::kNaNPoison,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, KernelFailurePaddedParallel) {
  check_fault_recovered(kModes[3], FaultKind::kKernelFailure,
                        StatusCode::kKernelFailure);
}
TEST(ResilienceFaultMatrix, NaNPoisonPaddedParallel) {
  check_fault_recovered(kModes[3], FaultKind::kNaNPoison,
                        StatusCode::kKernelFailure);
}

// ---------------------------------------------------------------------------
// Stall watchdog and tag repair, driven directly against MemoizedExecutor.

struct StallRun {
  Status status;
  MemoizedExecutor::Stats stats;
  i64 reachable = 0;
  Tensor output{Shape{1, 1, 1, 1}};
};

StallRun run_with_injection(bool parallel, FaultKind kind, i64 max_fires) {
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  const Subgraph sg = all_non_input_nodes(g);
  const Dims brick_extent{1, 4, 4};
  const int workers = 4;

  WeightStore ws(5);
  NumericBackend backend(g, ws, workers);
  Tensor input(g.node(0).out_shape);
  Rng rng(77);
  input.fill_random(rng);

  std::unordered_map<int, TensorId> io;
  for (int ext : sg.external_inputs) {
    const TensorId id = backend.register_tensor(g.node(ext).out_shape,
                                                Layout::kCanonical, {}, "ext");
    backend.bind(id, input);
    io[ext] = id;
  }
  const TensorId out = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, brick_extent, "out");
  io[sg.terminal()] = out;

  ScopedFaultInjection scoped(/*seed=*/13);
  FaultSpec spec;
  spec.kind = kind;
  spec.max_fires = max_fires;
  scoped.injector().arm(spec);

  // Tight watchdog so a test-sized run reclaims in milliseconds, not the
  // production default's seconds.
  MemoizedExecutor exec(g, sg, brick_extent, backend, io, workers, {64, 200});
  StallRun r;
  if (parallel) {
    WorkerTeam pool(workers);
    r.status = exec.run_parallel_checked(pool);
  } else {
    r.status = exec.run_checked();
  }
  r.stats = exec.stats();
  r.reachable = exec.reachable_bricks();
  if (r.status.ok()) r.output = backend.read(out);
  return r;
}

Tensor stall_reference() {
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  WeightStore ws(5);
  Tensor input(g.node(0).out_shape);
  Rng rng(77);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);
  return reference[static_cast<size_t>(g.outputs()[0])];
}

void check_stall_reclaimed(bool parallel) {
  const StallRun r =
      run_with_injection(parallel, FaultKind::kWorkerStall, /*max_fires=*/1);
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.stalled_workers, 1);
  EXPECT_GE(r.stats.reclaims, 1);
  // Exactly-once survives the repair: abandoned InProgress tags were
  // reclaimed and recomputed, none double-counted.
  EXPECT_EQ(r.stats.bricks_computed, r.reachable);
  EXPECT_TRUE(allclose(r.output, stall_reference(), 1e-4));
}

TEST(ResilienceStall, VirtualWorkerStallReclaimed) {
  check_stall_reclaimed(/*parallel=*/false);
}

// The TSan target: a real thread parks mid-InProgress, other threads'
// watchdogs repair its tags with CAS and recompute — race-free.
TEST(ResilienceStall, ParallelWorkerStallReclaimed) {
  check_stall_reclaimed(/*parallel=*/true);
}

TEST(ResilienceStall, AllWorkersStalledIsClassifiedNotHung) {
  const StallRun r = run_with_injection(/*parallel=*/false,
                                        FaultKind::kWorkerStall,
                                        /*max_fires=*/-1);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kExecutorStall);
  EXPECT_EQ(r.stats.stalled_workers, 4);
}

TEST(ResilienceStall, AllWorkersStalledParallelTerminates) {
  const StallRun r = run_with_injection(/*parallel=*/true,
                                        FaultKind::kWorkerStall,
                                        /*max_fires=*/-1);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kExecutorStall);
}

void check_dropped_publish_recomputed(bool parallel) {
  const StallRun r =
      run_with_injection(parallel, FaultKind::kDropPublish, /*max_fires=*/1);
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_GE(r.stats.lost_publishes, 1);
  EXPECT_GE(r.stats.reclaims, 1);
  EXPECT_EQ(r.stats.bricks_computed, r.reachable);
  EXPECT_TRUE(allclose(r.output, stall_reference(), 1e-4));
}

TEST(ResilienceStall, VirtualDroppedPublishRecomputed) {
  check_dropped_publish_recomputed(/*parallel=*/false);
}

TEST(ResilienceStall, ParallelDroppedPublishRecomputed) {
  check_dropped_publish_recomputed(/*parallel=*/true);
}

TEST(ResilienceStall, EngineFallsBackWhenAllWorkersStall) {
  // Engine level: a memoized subgraph whose every worker parks is classified
  // kExecutorStall and retried as padded (the stall hook is part of the
  // memoized protocol, so the retry runs clean).
  const Graph g = build_conv_chain_2d(3, 1, 20, 3);
  WeightStore ws(99);
  Tensor input(g.node(0).out_shape);
  Rng rng(21);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  ScopedFaultInjection scoped;
  FaultSpec spec;
  spec.kind = FaultKind::kWorkerStall;
  spec.max_fires = -1;
  scoped.injector().arm(spec);

  NumericBackend backend(g, ws, 4);
  Engine engine(g, resilient_options(kModes[1]));
  const auto result = engine.run_checked(backend, &input);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  bool fell_back = false;
  for (const SubgraphReport& report : result.value().reports) {
    if (report.attempts.size() > 1) {
      fell_back = true;
      EXPECT_EQ(report.attempts.front().status.code(),
                StatusCode::kExecutorStall);
      EXPECT_EQ(report.executed, Strategy::kPadded);
    }
  }
  EXPECT_TRUE(fell_back);
  const int output = g.outputs()[0];
  EXPECT_TRUE(allclose(backend.read(result.value().output),
                       reference[static_cast<size_t>(output)], 2e-4));
}

// ---------------------------------------------------------------------------
// Unrecoverable failures: classified, replayable, never a crash.

TEST(ResilienceDegradation, UnrecoverableFailureEmitsReplayLine) {
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  WeightStore ws(5);
  Tensor input(g.node(0).out_shape);
  Rng rng(7);
  input.fill_random(rng);

  ScopedFaultInjection scoped;
  FaultSpec spec;
  spec.kind = FaultKind::kKernelFailure;
  spec.max_fires = -1;  // every kernel faults: vendor can't save this
  scoped.injector().arm(spec);

  NumericBackend backend(g, ws, 4);
  Engine engine(g, resilient_options(kModes[0]));
  testing::internal::CaptureStderr();
  const auto result = engine.run_checked(backend, &input);
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kKernelFailure);
  EXPECT_NE(stderr_text.find("unrecoverable"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("replay:"), std::string::npos) << stderr_text;
}

// A node that faults on every kernel defeats the pooled padded bricks and
// then a pooled vendor tile: the tile's throw must cross the pool, be
// classified kKernelFailure, and end the ladder with a replay line.
TEST(ResilienceDegradation, PooledVendorTileFaultIsClassified) {
  const Graph g = build_conv_chain_2d(3, 1, 20, 3);
  WeightStore ws(5);
  Tensor input(g.node(0).out_shape);
  Rng rng(7);
  input.fill_random(rng);

  ScopedFaultInjection scoped;
  FaultSpec spec;
  spec.node_id = g.outputs()[0];
  spec.max_fires = -1;
  scoped.injector().arm(spec);

  NumericBackend backend(g, ws, 4);
  Engine engine(g, resilient_options(kModes[3]));
  testing::internal::CaptureStderr();
  const auto result = engine.run_checked(backend, &input);
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kKernelFailure);
  EXPECT_GE(scoped.injector().fires(FaultKind::kKernelFailure), 2);
  EXPECT_NE(stderr_text.find("[padded: "), std::string::npos) << stderr_text;
  EXPECT_NE(stderr_text.find("[vendor: "), std::string::npos) << stderr_text;
}

TEST(ResilienceDegradation, FallbackDisabledSurfacesRawStatus) {
  const Graph g = build_conv_chain_2d(2, 1, 18, 3);
  WeightStore ws(5);
  Tensor input(g.node(0).out_shape);
  Rng rng(7);
  input.fill_random(rng);

  ScopedFaultInjection scoped;
  scoped.injector().arm(FaultSpec{});  // one kernel failure

  EngineOptions options = resilient_options(kModes[1]);
  options.graceful_fallback = false;
  NumericBackend backend(g, ws, 4);
  Engine engine(g, options);
  testing::internal::CaptureStderr();
  const auto result = engine.run_checked(backend, &input);
  testing::internal::GetCapturedStderr();  // swallow the replay line
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kKernelFailure);
}

// ---------------------------------------------------------------------------
// Parser hardening: the malformed corpus must classify, never crash.

TEST(ResilienceParse, MalformedCorpusIsContained) {
  const std::filesystem::path dir = BRICKDL_MALFORMED_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    const auto parsed =
        parse_graph_checked(text.str(), entry.path().stem().string());
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidGraph)
        << parsed.status().to_string();
    EXPECT_FALSE(parsed.status().message().empty());
    ++cases;
  }
  EXPECT_GE(cases, 10) << "malformed corpus went missing";
}

TEST(ResilienceParse, ZeroStrideIsRejectedNotSIGFPE) {
  // stride=0 reaches an integer division in shape inference if the parser
  // lets it through — SIGFPE, which no exception handler can catch.
  const auto parsed = parse_graph_checked(
      "input x shape=1,3,8,8\n"
      "conv c in=x k=3,3 out_ch=4 stride=0,1 pad=1,1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidGraph);
  EXPECT_NE(parsed.status().message().find("stride"), std::string::npos)
      << parsed.status().message();
}

TEST(ResilienceParse, WellFormedGraphStillRoundTrips) {
  const Graph g = build_conv_chain_2d(3, 1, 20, 3);
  const auto parsed = parse_graph_checked(serialize_graph(g), g.name());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(serialize_graph(parsed.value()), serialize_graph(g));
}

}  // namespace
}  // namespace brickdl
