// Activation lifetimes (DESIGN.md §9.7): the engine releases every boundary
// tensor after its last consuming subgraph and every vendor interior after
// its last in-subgraph layer, and NumericBackend recycles the storage
// without clearing it. The tests poison recycled storage with NaN before a
// run (any read of a position no executor wrote would show in the output),
// check that live bytes return to zero and reserved bytes stop growing over
// repeated runs, and that a retried subgraph and a failed chain's barriered
// fallback still find their inputs alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "testing/fault_injection.hpp"
#include "testing/reference_eager.hpp"

namespace brickdl {
namespace {

constexpr int kWorkers = 4;
constexpr u64 kWeightSeed = 515;

/// A small ResNet-50: residual joins keep boundary tensors alive across
/// several subgraphs.
Graph small_resnet() {
  ModelConfig config;
  config.spatial = 56;  // 28, 14, 7: ragged bricks leave padding unwritten
  config.width_div = 16;
  config.classes = 10;
  return build_resnet50(config);
}

Tensor random_input(const Graph& g, u64 seed) {
  Tensor t(g.node(0).out_shape);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

Tensor eager_output(const Graph& g, const Tensor& input, WeightStore& ws) {
  return run_graph_eager(g, input, ws)[static_cast<size_t>(g.outputs()[0])];
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elements()) * sizeof(float)) == 0;
}

/// Elements of `shape` in the bricked layout at the brick side that pads it
/// most (bricks are clipped to the layer, so each dim at most doubles).
i64 max_bricked_elements(const Shape& shape) {
  const Dims blocked = shape.blocked_dims();
  i64 most = 0;
  for (i64 side : {4, 8, 16, 32}) {
    i64 elements = shape.channels();
    for (int d = 0; d < blocked.rank(); ++d) {
      const i64 b = std::min(side, blocked[d]);
      elements *= ceil_div(blocked[d], b) * b;
    }
    most = std::max(most, elements);
  }
  return most;
}

/// Fill `backend`'s free list with NaN blocks: per node, enough blocks for
/// every tensor a run can hold of it at once (per-worker padded scratch,
/// retries), each large enough for its bricked layout at any brick side.
void release_nan_blocks(const Graph& g, NumericBackend& backend) {
  std::vector<TensorId> ids;
  for (const Node& node : g.nodes()) {
    Tensor nan(Dims{max_bricked_elements(node.out_shape)});
    nan.fill(std::numeric_limits<float>::quiet_NaN());
    for (int i = 0; i < kWorkers + 2; ++i) {
      ids.push_back(backend.register_tensor(Shape(nan.dims()),
                                            Layout::kCanonical, {}, "nan"));
      backend.bind(ids.back(), nan);
    }
  }
  for (TensorId id : ids) backend.release_tensor(id);
  ASSERT_EQ(backend.live_bytes(), 0);
}

struct Variant {
  Strategy strategy;
  bool parallel;
};

std::string variant_name(const Variant& v) {
  return std::string(strategy_name(v.strategy)) +
         (v.parallel ? "/pooled" : "/serial");
}

EngineOptions variant_options(const Variant& v) {
  EngineOptions eo;
  eo.partition.cost_aware = false;  // at this scale the model picks vendor
  eo.force_strategy = v.strategy;
  eo.memo_workers = kWorkers;
  eo.memo_parallel = v.parallel;
  return eo;
}

// Every strategy reads only what it wrote: runs over NaN-poisoned recycled
// storage match the eager oracle bit for bit, and take every block they
// need from the poisoned free list.
TEST(ActivationLifetime, PoisonedReuseMatchesEagerOracle) {
  const Graph g = small_resnet();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 7);
  const Tensor reference = eager_output(g, input, ws);

  for (Strategy strategy :
       {Strategy::kVendor, Strategy::kPadded, Strategy::kMemoized}) {
    for (bool parallel : {false, true}) {
      const Variant v{strategy, parallel};
      SCOPED_TRACE(variant_name(v));
      Engine engine(g, variant_options(v));
      NumericBackend backend(g, ws, kWorkers);
      release_nan_blocks(g, backend);
      const i64 reserved = backend.reserved_bytes();

      const auto result = engine.run_checked(backend, &input);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_TRUE(same_bits(backend.read(result.value().output), reference));
      int ran = 0;
      for (const SubgraphReport& report : result.value().reports) {
        ran += report.executed == strategy;
      }
      EXPECT_GT(ran, 0) << "no subgraph ran the forced strategy";
      EXPECT_EQ(backend.reserved_bytes(), reserved)
          << "a tensor was served fresh storage, not a poisoned block";
    }
  }
}

// Live bytes return to zero after each run (the caller releases the output
// it read), and reserved storage stops growing after the first run.
TEST(ActivationLifetime, LiveBytesFlatAcrossRuns) {
  const Graph g = small_resnet();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 8);
  const Tensor reference = eager_output(g, input, ws);

  EngineOptions eo;
  eo.memo_workers = kWorkers;
  eo.memo_parallel = true;
  Engine engine(g, eo);
  NumericBackend backend(g, ws, kWorkers);

  i64 all_activations = 0;
  for (const Node& node : g.nodes()) all_activations += node.out_shape.bytes();

  obs::Histogram& peaks = obs::metrics().histogram("engine.peak_live_bytes");
  std::vector<i64> reserved;
  for (int run = 0; run < 5; ++run) {
    const i64 observed = peaks.count();
    const auto result = engine.run_checked(backend, &input);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(peaks.count(), observed + 1);
    EXPECT_TRUE(same_bits(backend.read(result.value().output), reference));
    EXPECT_GT(backend.peak_live_bytes(), 0);
    EXPECT_LT(backend.peak_live_bytes(), all_activations) << "run " << run;
    backend.release_tensor(result.value().output);
    EXPECT_EQ(backend.live_bytes(), 0) << "run " << run;
    reserved.push_back(backend.reserved_bytes());
  }
  for (size_t run = 2; run < reserved.size(); ++run) {
    EXPECT_EQ(reserved[run], reserved[1]) << "run " << run;
  }
}

/// Six 3x3 convs cut into three two-layer memoized subgraphs: every
/// subgraph is the last consumer of its input.
Graph chain_model() { return build_conv_chain_2d(6, 1, 32, 8); }

EngineOptions chain_options(bool pipeline, bool parallel) {
  EngineOptions eo;
  eo.partition.max_layers = 2;
  eo.force_strategy = Strategy::kMemoized;
  eo.memo_workers = kWorkers;
  eo.memo_parallel = parallel;
  eo.pipeline_subgraphs = pipeline;
  return eo;
}

/// Run with one kernel failure injected into the second subgraph's first
/// conv, over NaN-poisoned storage.
Result<EngineResult> run_with_fault(const Graph& g, const Tensor& input,
                                    const EngineOptions& eo,
                                    NumericBackend& backend) {
  release_nan_blocks(g, backend);
  ScopedFaultInjection scoped(/*seed=*/3);
  FaultSpec spec;
  spec.kind = FaultKind::kKernelFailure;
  spec.node_id = 3;
  spec.max_fires = 1;
  scoped.injector().arm(spec);
  Engine engine(g, eo);
  return engine.run_checked(backend, &input);
}

// A failed attempt is retried down the ladder with the same inputs, so they
// must outlive the failure.
TEST(ActivationLifetime, RetryStillSeesLiveInputs) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 9);
  const Tensor reference = eager_output(g, input, ws);

  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "pooled" : "serial");
    NumericBackend backend(g, ws, kWorkers);
    const auto result = run_with_fault(
        g, input, chain_options(/*pipeline=*/false, parallel), backend);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& reports = result.value().reports;
    ASSERT_EQ(reports.size(), 3u);
    ASSERT_EQ(reports[1].attempts.size(), 2u);
    EXPECT_FALSE(reports[1].attempts[0].status.ok());
    EXPECT_EQ(reports[1].executed, Strategy::kPadded);
    EXPECT_TRUE(same_bits(backend.read(result.value().output), reference));
    backend.release_tensor(result.value().output);
    EXPECT_EQ(backend.live_bytes(), 0);
  }
}

// A failed pipelined chain re-runs its members barriered from the chain's
// inputs, so nothing the chain consumed may be released before it succeeds.
TEST(ActivationLifetime, ChainFallbackStillSeesLiveInputs) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  const Tensor input = random_input(g, 10);
  const Tensor reference = eager_output(g, input, ws);

  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "pooled" : "serial");
    obs::Counter& fallbacks =
        obs::metrics().counter("engine.pipeline.chain_fallbacks");
    const i64 fallbacks_before = fallbacks.value();
    NumericBackend backend(g, ws, kWorkers);
    const auto result = run_with_fault(
        g, input, chain_options(/*pipeline=*/true, parallel), backend);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(fallbacks.value(), fallbacks_before + 1);
    const auto& reports = result.value().reports;
    ASSERT_EQ(reports.size(), 3u);
    // The first member re-ran barriered; the rest re-formed a chain.
    EXPECT_FALSE(reports[0].pipelined);
    for (const SubgraphReport& report : reports) {
      EXPECT_EQ(report.executed, Strategy::kMemoized);
    }
    EXPECT_TRUE(same_bits(backend.read(result.value().output), reference));
    backend.release_tensor(result.value().output);
    EXPECT_EQ(backend.live_bytes(), 0);
  }
}

// A released tensor is gone: using its id again is a checked error, not a
// read of recycled storage.
TEST(ActivationLifetime, ReleasedTensorCannotBeRead) {
  const Graph g = chain_model();
  WeightStore ws(kWeightSeed);
  NumericBackend backend(g, ws, 1);
  const TensorId id = backend.register_tensor(g.node(0).out_shape,
                                              Layout::kCanonical, {}, "x");
  EXPECT_GT(backend.live_bytes(), 0);
  backend.release_tensor(id);
  backend.release_tensor(id);  // a second release is a no-op
  EXPECT_EQ(backend.live_bytes(), 0);
  EXPECT_THROW(backend.read(id), Error);
}

}  // namespace
}  // namespace brickdl
