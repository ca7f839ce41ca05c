// Persistent plan cache suite (DESIGN.md §15, CTest label `plan_cache`).
//
// Cold/warm engine parity (a warm-started engine must produce bit-identical
// output from the persisted plan), cache-poisoning rejection (truncation, a
// strategy this build does not know, wrong schema, a signature that does not
// match the graph in hand — all named-status rejects with cold fallback,
// never a crash), key separation
// (different planning options miss rather than reject; calibrated vs
// uncalibrated processes never share entries), and concurrent warm-start
// readers racing a writer (TSan-meaningful: the atomic tmp+rename publish is
// the invariant under test).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/plan_cache.hpp"
#include "models/models.hpp"
#include "obs/calibrate.hpp"
#include "obs/metrics.hpp"
#include "ops/dispatch.hpp"
#include "util/rng.hpp"

namespace brickdl {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the system temp root, removed on
/// destruction. pid + process-local counter keeps parallel ctest shards
/// (and the sanitizer rebuilds) from colliding.
struct TempCacheDir {
  fs::path path;
  TempCacheDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("brickdl_plan_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Graph test_graph() { return build_conv_chain_2d(3, 1, 16, 2); }

PlanCacheEntry entry_for(const Graph& graph, const EngineOptions& options) {
  PlanCacheEntry entry;
  entry.partition = partition_graph(graph, options.partition);
  entry.calibration = options.partition.calibration;
  return entry;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --------------------------------------------------- Cold/warm engine parity

TEST(PlanCache, EngineColdPopulatesWarmHitsBitIdentical) {
  obs::metrics().reset();
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  eo.plan_cache_dir = dir.str();

  WeightStore weights(7);
  Tensor input(graph.node(0).out_shape);
  Rng rng(11);
  input.fill_random(rng);
  auto run_once = [&] {
    Engine engine(graph, eo);
    NumericBackend backend(graph, weights, 2);
    const EngineResult result = engine.run_checked(backend, &input).take();
    return backend.read(result.output);
  };

  const Tensor cold = run_once();
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.misses").value(), 1);
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.writes").value(), 1);
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.hits").value(), 0);

  const Tensor warm = run_once();
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.hits").value(), 1);
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.writes").value(), 1);
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.rejects").value(), 0);

  ASSERT_EQ(cold.dims(), warm.dims());
  EXPECT_EQ(std::memcmp(cold.data(), warm.data(),
                        static_cast<size_t>(cold.elements()) * sizeof(float)),
            0)
      << "warm-started output is not bit-identical to cold";
}

// ------------------------------------------------------- Entry round-trip

TEST(PlanCache, StoreLoadRoundTripsPlanAndCalibration) {
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  obs::CalibratedConstants cal =
      obs::CalibratedConstants::stock(eo.partition.machine);
  cal.effective_bandwidth *= 0.5;
  cal.t_atomic *= 2.0;
  cal.wall_scale = 2.25;
  eo.partition.calibration = cal;

  const PlanCacheEntry entry = entry_for(graph, eo);
  PlanCache cache(dir.str());
  const Status stored = cache.store(graph, eo, entry);
  ASSERT_TRUE(stored.ok()) << stored.to_string();

  const PlanCacheLookup lookup = cache.load(graph, eo);
  ASSERT_EQ(lookup.outcome, PlanCacheLookup::Outcome::kHit)
      << lookup.reject_reason.to_string();
  ASSERT_EQ(lookup.entry.partition.subgraphs.size(),
            entry.partition.subgraphs.size());
  for (size_t i = 0; i < entry.partition.subgraphs.size(); ++i) {
    const PlannedSubgraph& want = entry.partition.subgraphs[i];
    const PlannedSubgraph& got = lookup.entry.partition.subgraphs[i];
    EXPECT_EQ(got.sg.nodes, want.sg.nodes);
    EXPECT_EQ(got.sg.external_inputs, want.sg.external_inputs);
    EXPECT_EQ(got.sg.merged, want.sg.merged);
    EXPECT_EQ(got.strategy, want.strategy);
    EXPECT_EQ(got.brick_side, want.brick_side);
    EXPECT_EQ(got.rho, want.rho);            // %.17g: exact round-trip
    EXPECT_EQ(got.delta, want.delta);
    EXPECT_EQ(got.footprint_bytes, want.footprint_bytes);
  }
  ASSERT_TRUE(lookup.entry.calibration.has_value());
  EXPECT_EQ(lookup.entry.calibration->effective_bandwidth,
            cal.effective_bandwidth);
  EXPECT_EQ(lookup.entry.calibration->t_atomic, cal.t_atomic);
  EXPECT_EQ(lookup.entry.calibration->wall_scale, cal.wall_scale);
}

TEST(PlanCache, MissOnEmptyDirectory) {
  TempCacheDir dir;
  const Graph graph = test_graph();
  const PlanCacheLookup lookup = PlanCache(dir.str()).load(graph, {});
  EXPECT_EQ(lookup.outcome, PlanCacheLookup::Outcome::kMiss);
}

// ------------------------------------------------------- Cache poisoning

/// `text` (a stored entry) with its first subgraph's strategy renamed.
std::string with_first_strategy(std::string text, const std::string& name) {
  const std::string key = "\"strategy\": \"";
  const size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) return text;
  const size_t begin = at + key.size();
  return text.replace(begin, text.find('"', begin) - begin, name);
}

TEST(PlanCache, TruncatedEntryRejectsAndEngineFallsBackCold) {
  // Two poisoned files at the entry's key: a half-written entry, and a
  // complete entry from an older build whose plan names a strategy this
  // build no longer has ("wavefront").
  for (const bool stale : {false, true}) {
    SCOPED_TRACE(stale ? "stale strategy" : "truncated");
    obs::metrics().reset();
    TempCacheDir dir;
    const Graph graph = test_graph();
    EngineOptions eo;
    eo.plan_cache_dir = dir.str();
    PlanCache cache(dir.str());
    ASSERT_TRUE(cache.store(graph, eo, entry_for(graph, eo)).ok());

    const std::string path = cache.entry_path(graph, eo);
    const std::string full = read_text(path);
    ASSERT_GT(full.size(), 40u);
    write_text(path, stale ? with_first_strategy(full, "wavefront")
                           : full.substr(0, full.size() / 2));

    const PlanCacheLookup lookup = cache.load(graph, eo);
    EXPECT_EQ(lookup.outcome, PlanCacheLookup::Outcome::kReject);
    EXPECT_FALSE(lookup.reject_reason.ok());
    if (stale) {
      EXPECT_EQ(lookup.reject_reason.code(), StatusCode::kInvalidGraph);
      EXPECT_NE(lookup.reject_reason.message().find(
                    "unknown strategy 'wavefront'"),
                std::string::npos)
          << lookup.reject_reason.to_string();
    }

    // The engine treats the poisoned entry as a counted reject and plans
    // cold — never a crash, never a construction failure.
    Engine engine(graph, eo);
    EXPECT_EQ(obs::metrics().counter("engine.plan_cache.rejects").value(), 1);
    EXPECT_EQ(obs::metrics().counter("engine.plan_cache.hits").value(), 0);
    // The cold plan overwrites the poison; the next lookup hits again.
    EXPECT_EQ(obs::metrics().counter("engine.plan_cache.writes").value(), 1);
    EXPECT_EQ(cache.load(graph, eo).outcome, PlanCacheLookup::Outcome::kHit);
  }
}

TEST(PlanCache, WrongSchemaIsNamedUnknownSchemaReject) {
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  PlanCache cache(dir.str());

  obs::Json doc = PlanCache::entry_to_json(graph, eo, entry_for(graph, eo));
  doc.set("schema", "brickdl-plan-cache-v999");
  write_text(cache.entry_path(graph, eo), doc.dump(1));

  const PlanCacheLookup lookup = cache.load(graph, eo);
  ASSERT_EQ(lookup.outcome, PlanCacheLookup::Outcome::kReject);
  EXPECT_EQ(lookup.reject_reason.code(), StatusCode::kUnknownSchema);
}

TEST(PlanCache, SignatureCollisionWithMismatchedGraphRejects) {
  // Simulate a (hash-collision or copied-file) entry whose embedded plan
  // belongs to a *different* graph landing at this graph's key: the stored
  // signature disagrees with the graph in hand and must reject, not crash
  // and not hand the engine a foreign partition.
  TempCacheDir dir;
  const Graph graph = test_graph();
  const Graph other = build_conv_chain_2d(4, 1, 16, 2);
  EngineOptions eo;
  PlanCache cache(dir.str());

  const obs::Json foreign =
      PlanCache::entry_to_json(other, eo, entry_for(other, eo));
  write_text(cache.entry_path(graph, eo), foreign.dump(1));

  const PlanCacheLookup lookup = cache.load(graph, eo);
  ASSERT_EQ(lookup.outcome, PlanCacheLookup::Outcome::kReject);
  EXPECT_EQ(lookup.reject_reason.code(), StatusCode::kInvalidGraph);
}

TEST(PlanCache, OutOfRangePlanNodesReject) {
  // A structurally impossible plan (node ids beyond the graph) with the
  // *correct* signature line: hand-tampered or version-skewed content.
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  PlanCache cache(dir.str());

  PlanCacheEntry tampered = entry_for(graph, eo);
  ASSERT_FALSE(tampered.partition.subgraphs.empty());
  tampered.partition.subgraphs.back().sg.nodes.back() = 9999;
  const obs::Json doc = PlanCache::entry_to_json(graph, eo, tampered);
  write_text(cache.entry_path(graph, eo), doc.dump(1));

  const PlanCacheLookup lookup = cache.load(graph, eo);
  ASSERT_EQ(lookup.outcome, PlanCacheLookup::Outcome::kReject);
  EXPECT_EQ(lookup.reject_reason.code(), StatusCode::kInvalidGraph);
}

// ------------------------------------------------------------ Key hygiene

TEST(PlanCache, DifferentPlanningOptionsMissRatherThanReject) {
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  PlanCache cache(dir.str());
  ASSERT_TRUE(cache.store(graph, eo, entry_for(graph, eo)).ok());
  ASSERT_EQ(cache.load(graph, eo).outcome, PlanCacheLookup::Outcome::kHit);

  // Any knob the planner reads re-keys the entry: a different configuration
  // is simply a different cache line, not a validation failure.
  EngineOptions other = eo;
  other.force_brick_side = 8;
  EXPECT_NE(cache.entry_path(graph, other), cache.entry_path(graph, eo));
  EXPECT_EQ(cache.load(graph, other).outcome, PlanCacheLookup::Outcome::kMiss);

  EngineOptions budget = eo;
  budget.partition.l2_budget /= 2;
  EXPECT_EQ(cache.load(graph, budget).outcome,
            PlanCacheLookup::Outcome::kMiss);
}

TEST(PlanCache, CalibratedAndStockProcessesNeverShareEntries) {
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions stock_opts;
  PlanCache cache(dir.str());
  ASSERT_TRUE(cache.store(graph, stock_opts, entry_for(graph, stock_opts)).ok());

  EngineOptions calibrated = stock_opts;
  obs::CalibratedConstants cal =
      obs::CalibratedConstants::stock(calibrated.partition.machine);
  cal.effective_bandwidth *= 0.75;
  calibrated.partition.calibration = cal;

  // The fingerprint embeds the *effective* machine, so a calibrated process
  // misses the stock entry (and vice versa) instead of planning with the
  // wrong constants.
  EXPECT_EQ(cache.load(graph, calibrated).outcome,
            PlanCacheLookup::Outcome::kMiss);
  ASSERT_TRUE(cache.store(graph, calibrated, entry_for(graph, calibrated)).ok());
  EXPECT_EQ(cache.load(graph, calibrated).outcome,
            PlanCacheLookup::Outcome::kHit);
  EXPECT_EQ(cache.load(graph, stock_opts).outcome,
            PlanCacheLookup::Outcome::kHit);
}

TEST(PlanCache, IdentityCalibrationStillRekeys) {
  // Even a calibration numerically equal to stock is a distinct planning
  // configuration only if it changes the effective machine — the identity
  // fold must map to the *same* key, proving the fingerprint covers the
  // effective constants rather than the presence of the option.
  const Graph graph = test_graph();
  EngineOptions eo;
  EngineOptions identity = eo;
  identity.partition.calibration =
      obs::CalibratedConstants::stock(eo.partition.machine);
  EXPECT_EQ(plan_options_fingerprint(identity), plan_options_fingerprint(eo));
}

// --------------------------------------------------- Concurrent publication

TEST(PlanCache, ConcurrentWarmReadersRaceOneWriterCleanly) {
  // The atomic tmp+rename publish is the invariant: a reader must only ever
  // observe a complete entry (hit) or no entry (miss) — never a torn file
  // (reject). Run under TSan via the `plan_cache` label.
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  PlanCache cache(dir.str());
  const PlanCacheEntry entry = entry_for(graph, eo);
  ASSERT_TRUE(cache.store(graph, eo, entry).ok());

  std::atomic<int> rejects{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        const PlanCacheLookup lookup = cache.load(graph, eo);
        if (lookup.outcome == PlanCacheLookup::Outcome::kHit) {
          hits.fetch_add(1);
        } else {
          rejects.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 25; ++i) {
      const Status stored = cache.store(graph, eo, entry);
      EXPECT_TRUE(stored.ok()) << stored.to_string();
    }
  });
  for (std::thread& r : readers) r.join();
  writer.join();

  EXPECT_EQ(rejects.load(), 0) << "a reader observed a torn or missing entry";
  EXPECT_EQ(hits.load(), 4 * 40);
  EXPECT_EQ(cache.load(graph, eo).outcome, PlanCacheLookup::Outcome::kHit);
}

TEST(PlanCache, ConcurrentEnginesWarmStartFromOneCache) {
  // Whole-engine version of the race: several engines (one cold, the rest
  // cold-or-warm depending on scheduling) share a cache directory and must
  // all produce bit-identical outputs.
  obs::metrics().reset();
  TempCacheDir dir;
  const Graph graph = test_graph();
  EngineOptions eo;
  eo.plan_cache_dir = dir.str();
  WeightStore weights(7);
  Tensor input(graph.node(0).out_shape);
  Rng rng(11);
  input.fill_random(rng);

  constexpr int kEngines = 4;
  std::vector<Tensor> outputs(kEngines);
  std::vector<std::thread> threads;
  threads.reserve(kEngines);
  for (int t = 0; t < kEngines; ++t) {
    threads.emplace_back([&, t] {
      Engine engine(graph, eo);
      NumericBackend backend(graph, weights, 1);
      const EngineResult result = engine.run_checked(backend, &input).take();
      outputs[static_cast<size_t>(t)] = backend.read(result.output);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 1; t < kEngines; ++t) {
    ASSERT_EQ(outputs[0].dims(), outputs[static_cast<size_t>(t)].dims());
    EXPECT_EQ(std::memcmp(outputs[0].data(),
                          outputs[static_cast<size_t>(t)].data(),
                          static_cast<size_t>(outputs[0].elements()) *
                              sizeof(float)),
              0)
        << "engine " << t << " output differs";
  }
  // No lookup may have been a reject: every engine either planned cold
  // (miss) or reused a complete published entry (hit).
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.rejects").value(), 0);
  EXPECT_EQ(obs::metrics().counter("engine.plan_cache.hits").value() +
                obs::metrics().counter("engine.plan_cache.misses").value(),
            kEngines);
}

}  // namespace
}  // namespace brickdl
