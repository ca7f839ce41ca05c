// Serving front-end suite (label `serve`, DESIGN.md §10).
//
// The core contract under test: N concurrent requests through the batching
// scheduler produce outputs *bit-identical* to N sequential solo engine
// runs — batching is a scheduling decision, never a numerics decision — and
// the serve.* metrics prove real coalescing happened. The failure-path tests
// reuse the §7 taxonomy: incompatible shapes and poisoned inputs are
// rejected alone with classifying Statuses, oversized batches split rather
// than blow the footprint rule, and an injected fault (PR 2 hooks) fails
// only the request that faults solo while its batch-mates succeed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "graph/rewrite.hpp"
#include "models/models.hpp"
#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "testing/fault_injection.hpp"

namespace brickdl {
namespace {

using serve::RequestResult;
using serve::ServeOptions;
using serve::Server;

constexpr u64 kWeightSeed = 99;

Graph chain_model() { return build_conv_chain_2d(3, 1, 16, 2); }

/// Head + global classifier: exercises gap/dense/softmax so slicing covers
/// rank-2 [N, classes] outputs, not just spatial activations.
Graph classifier_model() {
  Graph g("classifier");
  int x = g.add_input("x", Shape{1, 3, 12, 12});
  x = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  x = g.add_relu(x, "r1");
  x = g.add_pool(x, "p", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  x = g.add_global_avg_pool(x, "gap");
  x = g.add_dense(x, "fc", 5);
  g.add_softmax(x, "sm");
  return g;
}

Tensor random_request(const Graph& model, i64 rows, u64 seed) {
  Dims dims = model.node(0).out_shape.dims;
  dims[0] = rows;
  Tensor t(dims);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

/// Ground truth: a direct solo Engine::run_batched_checked on the rebatched
/// graph, with a fresh same-seed WeightStore (weights are (seed, node name)
/// keyed, so this matches the server's store bit-for-bit).
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

i64 counter_value(const std::string& name) {
  return obs::metrics().counter(name).value();
}

}  // namespace

TEST(ServeBatching, StackSliceRoundTrip) {
  Rng rng(7);
  Tensor a(Dims{2, 3, 4}), b(Dims{1, 3, 4}), c(Dims{3, 3, 4});
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  auto stacked = stack_batch({&a, &b, &c});
  ASSERT_TRUE(stacked.ok());
  EXPECT_EQ(stacked.value().dims(), (Dims{6, 3, 4}));
  EXPECT_EQ(max_abs_diff(slice_batch(stacked.value(), 0, 2), a), 0.0);
  EXPECT_EQ(max_abs_diff(slice_batch(stacked.value(), 2, 1), b), 0.0);
  EXPECT_EQ(max_abs_diff(slice_batch(stacked.value(), 3, 3), c), 0.0);

  Tensor bad(Dims{2, 5, 4});
  auto mismatch = stack_batch({&a, &bad});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kShapeMismatch);
}

TEST(ServeBatching, RebatchPreservesTopologyAndNames) {
  const Graph model = classifier_model();
  auto rebatched = rebatch_graph(model, 5);
  ASSERT_TRUE(rebatched.ok()) << rebatched.status().to_string();
  const Graph& g = rebatched.value();
  ASSERT_EQ(g.num_nodes(), model.num_nodes());
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.node(i).name, model.node(i).name);
    EXPECT_EQ(g.node(i).kind, model.node(i).kind);
    EXPECT_EQ(g.node(i).inputs, model.node(i).inputs);
    EXPECT_EQ(g.node(i).out_shape.dims[0], 5);
    for (int k = 1; k < g.node(i).out_shape.rank(); ++k) {
      EXPECT_EQ(g.node(i).out_shape.dims[k], model.node(i).out_shape.dims[k]);
    }
  }
  EXPECT_FALSE(rebatch_graph(model, 0).ok());
}

TEST(ServeBatching, SoloRequestBitIdenticalToDirectRun) {
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 1000;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  const Tensor input = random_request(model, 2, 11);
  RequestResult result = server.submit(input).get();
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.batch_requests, 1);
  EXPECT_EQ(result.batch_rows, 2);
  EXPECT_EQ(max_abs_diff(result.output, solo_reference(model, input, opts.engine)),
            0.0);
}

// Acceptance: concurrent requests coalesce into multi-request engine runs
// whose per-request slices are bit-identical to sequential solo runs, for
// both merged strategies, with occupancy metrics proving real batching.
class ServeBatchingStrategies
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ServeBatchingStrategies, ConcurrentRequestsBitIdenticalToSolo) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 500000;  // generous: flushes trigger on max_batch
  if (std::string(GetParam()) == "padded") {
    opts.engine.force_strategy = Strategy::kPadded;
  } else {
    opts.engine.force_strategy = Strategy::kMemoized;
    opts.engine.memo_parallel = true;  // real pool: TSan-meaningful
  }
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  const i64 rows[] = {1, 2, 1, 3, 1, 1, 2, 1};
  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(random_request(model, rows[i], 100 + static_cast<u64>(i)));
  }

  // Four submitter threads, two requests each — admission is the
  // thread-safe surface under test here.
  std::vector<std::future<RequestResult>> futures(8);
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = t * 2; i < t * 2 + 2; ++i) {
          futures[static_cast<size_t>(i)] = server.submit(inputs[static_cast<size_t>(i)]);
        }
      });
    }
    for (auto& s : submitters) s.join();
  }

  for (int i = 0; i < 8; ++i) {
    RequestResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_EQ(result.output.dims()[0], rows[i]);
    EXPECT_EQ(
        max_abs_diff(result.output,
                     solo_reference(model, inputs[static_cast<size_t>(i)], opts.engine)),
        0.0)
        << "request " << i << " not bit-identical to its solo run";
  }

  EXPECT_EQ(counter_value("serve.completed"), 8);
  EXPECT_EQ(counter_value("serve.failed"), 0);
  // At least one genuinely multi-request batch formed.
  EXPECT_GE(obs::metrics().histogram("serve.batch_occupancy").max(), 2)
      << "no multi-request batch formed";
  EXPECT_GE(counter_value("serve.batches"), 2);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ServeBatchingStrategies,
                         ::testing::Values("padded", "memoized"));

TEST(ServeBatching, GlobalClassifierOutputsSlicePerRequest) {
  const Graph model = classifier_model();
  ServeOptions opts;
  opts.max_batch = 3;
  opts.max_wait_us = 500000;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  std::vector<Tensor> inputs;
  std::vector<std::future<RequestResult>> futures;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_request(model, 1 + i % 2, 40 + static_cast<u64>(i)));
    futures.push_back(server.submit(inputs.back()));
  }
  for (int i = 0; i < 3; ++i) {
    RequestResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_EQ(max_abs_diff(result.output,
                           solo_reference(model, inputs[static_cast<size_t>(i)],
                                          opts.engine)),
              0.0);
  }
}

TEST(ServeBatching, IncompatibleShapeRejectedWithNamedStatus) {
  obs::metrics().reset();
  const Graph model = chain_model();  // input [N, 2, 16, 16]
  ServeOptions opts;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  Tensor wrong_channels(Dims{1, 3, 16, 16});
  RequestResult r1 = server.submit(wrong_channels).get();
  EXPECT_EQ(r1.status.code(), StatusCode::kShapeMismatch);
  EXPECT_NE(r1.status.message().find("[1x3x16x16]"), std::string::npos)
      << r1.status.message();

  Tensor wrong_rank(Dims{1, 2, 16});
  RequestResult r2 = server.submit(wrong_rank).get();
  EXPECT_EQ(r2.status.code(), StatusCode::kShapeMismatch);

  // Rejections are classified, not dropped: both resolved their futures and
  // were counted, nothing was enqueued for them.
  EXPECT_EQ(counter_value("serve.rejected"), 2);
  EXPECT_EQ(counter_value("serve.enqueued"), 0);
}

TEST(ServeBatching, PoisonedInputRejectedAloneBatchMatesSucceed) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_wait_us = 500000;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  Tensor good0 = random_request(model, 1, 50);
  Tensor poisoned = random_request(model, 1, 51);
  poisoned.flat(3) = std::numeric_limits<float>::quiet_NaN();
  Tensor good1 = random_request(model, 1, 52);

  auto f0 = server.submit(good0);
  auto fp = server.submit(poisoned);
  auto f1 = server.submit(good1);

  RequestResult rp = fp.get();
  EXPECT_EQ(rp.status.code(), StatusCode::kKernelFailure);
  EXPECT_NE(rp.status.message().find("non-finite"), std::string::npos);

  RequestResult r0 = f0.get();
  RequestResult r1 = f1.get();
  ASSERT_TRUE(r0.status.ok());
  ASSERT_TRUE(r1.status.ok());
  // The two healthy requests still coalesced into one batch around the
  // rejected one.
  EXPECT_EQ(r0.batch_requests, 2);
  EXPECT_EQ(r1.batch_requests, 2);
  EXPECT_EQ(max_abs_diff(r0.output, solo_reference(model, good0, opts.engine)),
            0.0);
  EXPECT_EQ(max_abs_diff(r1.output, solo_reference(model, good1, opts.engine)),
            0.0);
}

TEST(ServeBatching, OversizedBatchSplitsByRowCapAndCompletes) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 500000;
  opts.max_batch_rows = 2;  // a 4-row stacked batch must split in half
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  std::vector<Tensor> inputs;
  std::vector<std::future<RequestResult>> futures;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(random_request(model, 1, 60 + static_cast<u64>(i)));
    futures.push_back(server.submit(inputs.back()));
  }
  for (int i = 0; i < 4; ++i) {
    RequestResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_EQ(result.batch_requests, 2);  // both halves ran as pairs
    EXPECT_EQ(result.batch_rows, 2);
    EXPECT_EQ(max_abs_diff(result.output,
                           solo_reference(model, inputs[static_cast<size_t>(i)],
                                          opts.engine)),
              0.0);
  }
  EXPECT_EQ(counter_value("serve.splits"), 1);
  EXPECT_EQ(counter_value("serve.batches"), 2);
}

TEST(ServeBatching, FootprintBudgetSplitsToSoloAndCompletes) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 500000;
  opts.footprint_budget = 1;  // every merged plan is "oversized"
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  std::vector<Tensor> inputs;
  std::vector<std::future<RequestResult>> futures;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(random_request(model, 1, 70 + static_cast<u64>(i)));
    futures.push_back(server.submit(inputs.back()));
  }
  for (int i = 0; i < 4; ++i) {
    RequestResult result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_EQ(result.batch_requests, 1);  // split all the way down
    EXPECT_EQ(max_abs_diff(result.output,
                           solo_reference(model, inputs[static_cast<size_t>(i)],
                                          opts.engine)),
              0.0);
  }
  EXPECT_EQ(counter_value("serve.splits"), 3);       // 4 -> 2+2 -> 1+1+1+1
  EXPECT_EQ(counter_value("serve.oversized_solo"), 4);
}

TEST(ServeBatching, InjectedFaultFailsOneRequestBatchMatesSucceed) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 3;
  opts.max_wait_us = 500000;
  // No engine-level strategy retries: the injected kernel fault must surface
  // through the *serving* layer's per-request containment instead.
  opts.engine.graceful_fallback = false;

  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_request(model, 1, 80 + static_cast<u64>(i)));
  }
  // Clean ground truth before arming any fault.
  std::vector<Tensor> expected;
  for (const Tensor& input : inputs) {
    expected.push_back(solo_reference(model, input, opts.engine));
  }

  WeightStore ws(kWeightSeed);
  ScopedFaultInjection injection;
  // Fire 1 kills the coalesced batch run; fire 2 kills the first member's
  // solo re-run. Members re-run in queue order, so exactly request 0 fails
  // and its batch-mates complete.
  injection.injector().arm(
      {FaultKind::kKernelFailure, /*node_id=*/-1, /*skip=*/0, /*max_fires=*/2});

  Server server(model, ws, opts);
  std::vector<std::future<RequestResult>> futures;
  for (const Tensor& input : inputs) futures.push_back(server.submit(input));

  RequestResult r0 = futures[0].get();
  RequestResult r1 = futures[1].get();
  RequestResult r2 = futures[2].get();
  server.shutdown();

  EXPECT_EQ(r0.status.code(), StatusCode::kKernelFailure);
  ASSERT_TRUE(r1.status.ok()) << r1.status.to_string();
  ASSERT_TRUE(r2.status.ok()) << r2.status.to_string();
  EXPECT_EQ(r1.batch_requests, 1);  // served by its solo fallback run
  EXPECT_EQ(max_abs_diff(r1.output, expected[1]), 0.0);
  EXPECT_EQ(max_abs_diff(r2.output, expected[2]), 0.0);
  EXPECT_EQ(injection.injector().fires(FaultKind::kKernelFailure), 2);
  EXPECT_EQ(counter_value("serve.batch_failures"), 1);
  EXPECT_EQ(counter_value("serve.solo_fallbacks"), 1);
  EXPECT_EQ(counter_value("serve.failed"), 1);
  EXPECT_EQ(counter_value("serve.completed"), 2);
}

TEST(ServeBatching, ShutdownDrainsQueueAndRejectsLateSubmits) {
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 10'000'000;  // would wait 10s — shutdown must not
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  std::vector<std::future<RequestResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(random_request(model, 1, 90 + static_cast<u64>(i))));
  }
  server.shutdown();
  for (auto& f : futures) {
    RequestResult result = f.get();
    EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  }
  RequestResult late = server.submit(random_request(model, 1, 99)).get();
  EXPECT_EQ(late.status.code(), StatusCode::kShuttingDown);
  EXPECT_TRUE(late.shed);
  EXPECT_NE(late.status.message().find("shutting down"), std::string::npos);
}

TEST(ServeBatching, PlanCacheAmortizesAcrossFlushes) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_wait_us = 500000;
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  // Three flushes of the same stacked size: the §3.3 partition/strategy
  // planning runs once, then hits the cache.
  for (int round = 0; round < 3; ++round) {
    auto f0 = server.submit(random_request(model, 1, 200 + static_cast<u64>(round)));
    auto f1 = server.submit(random_request(model, 1, 300 + static_cast<u64>(round)));
    ASSERT_TRUE(f0.get().status.ok());
    ASSERT_TRUE(f1.get().status.ok());
  }
  EXPECT_EQ(counter_value("serve.plan_cache_misses"), 1);
  EXPECT_GE(counter_value("serve.plan_cache_hits"), 2);
}

TEST(ServeOptionsValidation, RejectsOutOfRangeKnobs) {
  ServeOptions opts;
  opts.max_batch = 0;
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  opts = ServeOptions{};
  opts.backend_workers = 0;
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  opts = ServeOptions{};
  opts.engine.memo_workers = 0;  // engine knobs validated transitively
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  opts = ServeOptions{};
  opts.max_queue_depth = -1;
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  opts = ServeOptions{};
  opts.default_deadline_us = -1;
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  opts = ServeOptions{};
  opts.breaker_failures = -1;
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  opts = ServeOptions{};
  opts.breaker_cooldown = 0;
  EXPECT_EQ(validate_serve_options(opts).code(), StatusCode::kInvalidOptions);
  EXPECT_TRUE(validate_serve_options(ServeOptions{}).ok());
}

// ---- Overload / chaos suite (DESIGN.md §12) ----
//
// Determinism recipe: max_batch = 1 serializes the scheduler, and an armed
// kBatchStall fault makes each batch execution sleep a fixed wall-clock
// interval before running — so the test controls exactly how long requests
// sit in the queue, independent of machine speed or sanitizer slowdown.

namespace {

/// Spin until the scheduler has popped everything (depth 0) — i.e. the
/// in-flight batch is executing (or stalled in the injected fault).
void wait_for_empty_queue(Server& server) {
  while (server.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace

TEST(ServeOverload, BoundedAdmissionShedsWithNamedStatusAndStaysBitIdentical) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 1;  // serialize: one request per batch
  opts.max_wait_us = 0;
  opts.max_queue_depth = 4;
  WeightStore ws(kWeightSeed);

  ScopedFaultInjection injection;
  FaultSpec stall;
  stall.kind = FaultKind::kBatchStall;
  stall.max_fires = -1;
  stall.delay_us = 150'000;  // every batch sleeps 150 ms before running
  injection.injector().arm(stall);

  Server server(model, ws, opts);

  // Blocker: admitted, popped, now stalled in execution — the queue is empty
  // and the scheduler is busy for 150 ms.
  Tensor blocker_input = random_request(model, 1, 500);
  auto blocker = server.submit(blocker_input);
  wait_for_empty_queue(server);

  // 4x overload burst: 8 requests against a queue of 4. Exactly 4 are
  // admitted; the rest are refused at submit() with the named status (no
  // deadlines anywhere, so EDF eviction can never prefer a newcomer).
  std::vector<Tensor> inputs;
  std::vector<std::future<RequestResult>> futures;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(random_request(model, 1, 510 + static_cast<u64>(i)));
    futures.push_back(server.submit(inputs.back()));
    EXPECT_LE(server.queue_depth(), opts.max_queue_depth)
        << "queue exceeded max_queue_depth";
  }

  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 8; ++i) {
    RequestResult result = futures[static_cast<size_t>(i)].get();
    if (result.status.ok()) {
      ++admitted;
      // Admission pressure must never change numerics: every served
      // request is still bit-identical to its solo run.
      EXPECT_EQ(max_abs_diff(result.output,
                             solo_reference(model, inputs[static_cast<size_t>(i)],
                                            opts.engine)),
                0.0);
    } else {
      ++shed;
      EXPECT_EQ(result.status.code(), StatusCode::kOverloaded);
      EXPECT_TRUE(result.shed);
      EXPECT_NE(result.status.message().find("queue at capacity"),
                std::string::npos);
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 4);
  EXPECT_TRUE(blocker.get().status.ok());

  server.shutdown();
  EXPECT_EQ(counter_value("serve.shed.overload"), 4);
  EXPECT_EQ(counter_value("serve.rejected"), 4);
  EXPECT_EQ(counter_value("serve.completed"), 5);
  // Satellite: the depth gauge is updated on every queue mutation, so after
  // a full drain it reads exactly zero.
  EXPECT_EQ(obs::metrics().gauge("serve.depth").value(), 0.0);
}

TEST(ServeOverload, ExpiredDeadlineShedsWithoutExecuting) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  WeightStore ws(kWeightSeed);

  ScopedFaultInjection injection;
  FaultSpec stall;
  stall.kind = FaultKind::kBatchStall;
  stall.max_fires = 1;  // only the blocker's batch stalls
  stall.delay_us = 300'000;
  injection.injector().arm(stall);

  Server server(model, ws, opts);
  auto blocker = server.submit(random_request(model, 1, 600));
  wait_for_empty_queue(server);

  // 50 ms deadline against a 300 ms stall: the deadline is long gone by the
  // time the scheduler gets to this request, so it must be shed *without
  // executing* — serve.batches stays at the blocker's 1.
  auto doomed = server.submit(random_request(model, 1, 601),
                              /*deadline_us=*/50'000);
  RequestResult result = doomed.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.shed);
  EXPECT_NE(result.status.message().find("deadline expired"),
            std::string::npos);
  EXPECT_TRUE(blocker.get().status.ok());

  server.shutdown();
  EXPECT_EQ(counter_value("serve.shed.deadline"), 1);
  EXPECT_EQ(counter_value("serve.batches"), 1) << "shed request executed";
  EXPECT_EQ(counter_value("serve.completed"), 1);
  EXPECT_EQ(obs::metrics().gauge("serve.depth").value(), 0.0);
}

TEST(ServeOverload, EdfEvictionPrefersNewcomerWithMoreSlack) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.max_queue_depth = 2;
  WeightStore ws(kWeightSeed);

  ScopedFaultInjection injection;
  FaultSpec stall;
  stall.kind = FaultKind::kBatchStall;
  stall.max_fires = -1;
  stall.delay_us = 250'000;
  injection.injector().arm(stall);

  Server server(model, ws, opts);
  auto blocker = server.submit(random_request(model, 1, 700));
  wait_for_empty_queue(server);

  // Queue fills with a 30 ms and a 60 ms deadline.
  auto fa = server.submit(random_request(model, 1, 701), 30'000);
  auto fb = server.submit(random_request(model, 1, 702), 60'000);
  EXPECT_EQ(server.queue_depth(), 2);

  // A 5 s newcomer has far more slack than the queued 30 ms request, so the
  // 30 ms one (least likely to be served in time) is evicted for it.
  auto fc = server.submit(random_request(model, 1, 703), 5'000'000);
  RequestResult ra = fa.get();  // resolved synchronously by the eviction
  EXPECT_EQ(ra.status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(ra.shed);
  EXPECT_NE(ra.status.message().find("took the queue slot"),
            std::string::npos);
  EXPECT_EQ(server.queue_depth(), 2);

  // A 1 ms newcomer has *less* slack than anything queued: refused, queue
  // untouched.
  RequestResult rd =
      server.submit(random_request(model, 1, 704), 1'000).get();
  EXPECT_EQ(rd.status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(rd.shed);
  EXPECT_NE(rd.status.message().find("no queued request has an earlier"),
            std::string::npos);
  EXPECT_EQ(server.queue_depth(), 2);

  // The 60 ms request expires during the blocker's 250 ms stall and is shed
  // at flush; the 5 s one survives the stall and is served.
  EXPECT_TRUE(blocker.get().status.ok());
  EXPECT_EQ(fb.get().status.code(), StatusCode::kDeadlineExceeded);
  RequestResult rc = fc.get();
  EXPECT_TRUE(rc.status.ok()) << rc.status.to_string();

  server.shutdown();
  EXPECT_EQ(counter_value("serve.shed.overload"), 2);  // eviction + refusal
  EXPECT_EQ(counter_value("serve.rejected"), 1);       // only the refusal
  EXPECT_EQ(obs::metrics().gauge("serve.depth").value(), 0.0);
}

TEST(ServeOverload, BreakerOpensRoutesDegradedAndRecoversViaProbe) {
  obs::metrics().reset();
  // 20x20x3: large enough that the 1-row plan stays merged (the 16x16 chain
  // model hits the brick model's vendor fallback at 1 row, which would leave
  // no memoized subgraph for the stall to poison).
  const Graph model = build_conv_chain_2d(3, 1, 20, 3);
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.breaker_failures = 2;  // K: open after 2 consecutive degraded runs
  opts.breaker_cooldown = 2;  // N: probe after 2 degraded-tier runs
  // Tier 0 plans memoized; an armed unlimited worker stall makes every
  // memoized attempt fail, so each tier-0 run walks the §7 chain to padded
  // (degraded but served). The breaker's tier-1 engine forces padded, which
  // runs clean — no walk.
  opts.engine.partition.cost_aware = false;  // merge even at test scale
  opts.engine.force_strategy = Strategy::kMemoized;
  opts.engine.memo_workers = 4;
  opts.engine.memo_parallel = false;         // deterministic stall detection
  opts.engine.memo_watchdog = {64, 200};
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  auto serve_one = [&](u64 seed) {
    RequestResult r = server.submit(random_request(model, 1, seed)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  };
  auto fallbacks = [] { return counter_value("engine.fallbacks"); };

  {
    ScopedFaultInjection injection;
    FaultSpec stall;
    stall.kind = FaultKind::kWorkerStall;
    stall.max_fires = -1;
    injection.injector().arm(stall);

    // Runs 1-2: closed breaker, each run walks memoized -> padded.
    serve_one(800);
    serve_one(801);
    EXPECT_EQ(counter_value("serve.breaker.opens"), 1);
    const i64 walks_while_closed = fallbacks();
    EXPECT_GE(walks_while_closed, 2);
    // A single run walks the chain once per merged subgraph.
    const i64 walks_per_run = walks_while_closed / 2;

    // Runs 3-4: breaker open — routed straight to the padded tier. The
    // acceptance criterion: one degradation walk per breaker cycle, not one
    // per request, so the fallback counter must not move here.
    serve_one(802);
    serve_one(803);
    EXPECT_EQ(fallbacks(), walks_while_closed)
        << "breaker-open runs still walked the degradation chain";

    // Run 5: cooldown elapsed -> half-open probe of the planned tier. The
    // stall is still armed, so the probe walks the chain once and re-opens.
    serve_one(804);
    EXPECT_EQ(counter_value("serve.breaker.probes"), 1);
    EXPECT_EQ(counter_value("serve.breaker.closes"), 0);
    EXPECT_EQ(fallbacks(), walks_while_closed + walks_per_run);

    // Runs 6-7: re-opened — degraded tier again, still no walks.
    serve_one(805);
    serve_one(806);
    EXPECT_EQ(fallbacks(), walks_while_closed + walks_per_run);
  }  // stall disarmed: the planned tier is healthy again

  // Run 8: next probe succeeds cleanly -> breaker closes.
  serve_one(807);
  EXPECT_EQ(counter_value("serve.breaker.probes"), 2);
  EXPECT_EQ(counter_value("serve.breaker.closes"), 1);

  // Run 9: closed again, planned tier serves clean (no walk).
  const i64 walks_after_close = counter_value("engine.fallbacks");
  serve_one(808);
  EXPECT_EQ(counter_value("engine.fallbacks"), walks_after_close);
  EXPECT_EQ(counter_value("serve.breaker.opens"), 1)
      << "breaker re-opened after recovery";
  server.shutdown();
  EXPECT_EQ(counter_value("serve.failed"), 0);
}

TEST(ServeOverload, ShutdownDrainDeadlineFailsRemainingWithNamedStatus) {
  obs::metrics().reset();
  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  WeightStore ws(kWeightSeed);

  ScopedFaultInjection injection;
  FaultSpec stall;
  stall.kind = FaultKind::kBatchStall;
  stall.max_fires = -1;
  stall.delay_us = 200'000;
  injection.injector().arm(stall);

  Server server(model, ws, opts);
  auto in_flight = server.submit(random_request(model, 1, 900));
  wait_for_empty_queue(server);

  std::vector<std::future<RequestResult>> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(server.submit(random_request(model, 1, 901 + static_cast<u64>(i))));
  }

  // Drain deadline far shorter than the in-flight batch's stall: the
  // in-flight request still completes (in-flight work is never abandoned),
  // but everything queued behind it fails with the named status.
  server.shutdown(/*drain_deadline_us=*/10'000);

  RequestResult first = in_flight.get();
  EXPECT_TRUE(first.status.ok()) << first.status.to_string();
  for (auto& f : queued) {
    RequestResult r = f.get();  // shutdown() joined: resolved, no blocking
    EXPECT_EQ(r.status.code(), StatusCode::kShuttingDown);
    EXPECT_TRUE(r.shed);
    EXPECT_NE(r.status.message().find("drain deadline"), std::string::npos);
  }
  EXPECT_EQ(counter_value("serve.shed.shutdown"), 5);
  EXPECT_EQ(counter_value("serve.completed"), 1);
  EXPECT_EQ(obs::metrics().gauge("serve.depth").value(), 0.0);
}

// ------------------------------------------------ Serving telemetry (§13)

TEST(ServeTelemetry, TraceLinksRequestsAcrossStagesByFlowId) {
  obs::metrics().reset();
  obs::events().clear();
  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_enabled(true);

  const Graph model = chain_model();
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_wait_us = 2000;
  constexpr int kRequests = 6;
  WeightStore ws(kWeightSeed);
  {
    Server server(model, ws, opts);
    std::vector<std::future<RequestResult>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(server.submit(
          random_request(model, 1, 700 + static_cast<u64>(i))));
    }
    for (auto& f : futures) {
      RequestResult r = f.get();
      ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    }
    server.shutdown();
  }
  obs::Tracer::instance().set_enabled(false);

  const obs::Json trace = obs::Tracer::instance().export_chrome_trace();
  ASSERT_TRUE(obs::validate_chrome_trace(trace).ok())
      << obs::validate_chrome_trace(trace).to_string();

  // Every served request must leave a complete flow chain keyed by its
  // request id — start in the flush span ('s'), step in the engine batch
  // span ('t'), finish alongside its resolution ('f') — plus a retroactive
  // queue-wait span tagged {"req": id}. Request ids are assigned densely
  // from 0 in submit order.
  std::map<i64, std::set<char>> flows;
  std::set<i64> queue_spans;
  for (const obs::Json& e : trace.find("traceEvents")->elements()) {
    const std::string& ph = e.find("ph")->str();
    if (ph == "s" || ph == "t" || ph == "f") {
      ASSERT_NE(e.find("id"), nullptr);
      flows[e.find("id")->integer()].insert(ph[0]);
    } else if (ph == "X" &&
               e.find("name")->str().rfind("queue:req", 0) == 0) {
      const obs::Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("req"), nullptr);
      queue_spans.insert(args->find("req")->integer());
    }
  }
  const std::set<char> full_chain{'s', 't', 'f'};
  for (i64 id = 0; id < kRequests; ++id) {
    EXPECT_EQ(flows[id], full_chain) << "request " << id;
    EXPECT_TRUE(queue_spans.count(id)) << "request " << id;
  }
}

TEST(ServeTelemetry, FlightRecordPerBreakerOpenValidatesSchema) {
  obs::metrics().reset();
  obs::events().clear();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "brickdl_serve_flight_test";
  std::filesystem::remove_all(dir);
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.reset();
  obs::FlightRecorder::Options fopts;
  fopts.dir = dir.string();
  recorder.configure(fopts);

  // Same chaos recipe as BreakerOpensRoutesDegradedAndRecoversViaProbe: an
  // armed worker stall degrades every tier-0 run until the breaker opens.
  const Graph model = build_conv_chain_2d(3, 1, 20, 3);
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_wait_us = 0;
  opts.breaker_failures = 2;
  opts.breaker_cooldown = 2;
  opts.engine.partition.cost_aware = false;
  opts.engine.force_strategy = Strategy::kMemoized;
  opts.engine.memo_workers = 4;
  opts.engine.memo_parallel = false;
  opts.engine.memo_watchdog = {64, 200};
  WeightStore ws(kWeightSeed);
  Server server(model, ws, opts);

  auto serve_one = [&](u64 seed) {
    RequestResult r = server.submit(random_request(model, 1, seed)).get();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  };

  {
    ScopedFaultInjection injection;
    FaultSpec stall;
    stall.kind = FaultKind::kWorkerStall;
    stall.max_fires = -1;
    injection.injector().arm(stall);
    serve_one(820);  // degraded walk -> one kDegradedRun record
    serve_one(821);  // degraded walk -> breaker opens -> kBreakerOpen record
    serve_one(822);  // breaker open: degraded tier runs clean, no record
    serve_one(823);
  }
  serve_one(824);  // cooled down: probe runs clean -> breaker closes
  server.shutdown();

  const i64 opens = counter_value("serve.breaker.opens");
  ASSERT_EQ(opens, 1);
  EXPECT_EQ(counter_value("serve.breaker.closes"), 1);
  EXPECT_EQ(counter_value("serve.failed"), 0);

  // The event log saw exactly one open and one close.
  size_t open_events = 0, close_events = 0;
  for (const obs::EventRecord& r : obs::events().snapshot_last(4096)) {
    if (r.kind == obs::ServeEvent::kBreakerOpen) ++open_events;
    if (r.kind == obs::ServeEvent::kBreakerClose) ++close_events;
  }
  EXPECT_EQ(open_events, 1u);
  EXPECT_EQ(close_events, 1u);

  // Exactly one flight record per breaker open, every record on disk parses
  // and validates against brickdl-flight-v1.
  size_t breaker_records = 0, total_records = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    ++total_records;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << name;
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<obs::Json> doc = obs::Json::parse(buffer.str());
    ASSERT_TRUE(doc.ok()) << name << ": " << doc.status().to_string();
    const Status valid = obs::validate_flight_record(doc.value());
    ASSERT_TRUE(valid.ok()) << name << ": " << valid.to_string();
    if (name.find("breaker.open") != std::string::npos) {
      ++breaker_records;
      EXPECT_EQ(doc.value().find("trigger")->str(), "breaker.open");
      // The record's event tail carries the open itself.
      bool saw_open = false;
      for (const obs::Json& e : doc.value().find("events")->elements()) {
        if (e.find("event")->str() == "breaker.open") saw_open = true;
      }
      EXPECT_TRUE(saw_open);
    }
  }
  EXPECT_EQ(breaker_records, static_cast<size_t>(opens));
  EXPECT_GE(total_records, breaker_records + 1);  // plus degraded-run dumps
  EXPECT_EQ(recorder.records_written(), total_records);

  recorder.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace brickdl
