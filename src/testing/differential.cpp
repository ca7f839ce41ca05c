#include "testing/differential.hpp"

#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>

#include "baselines/fused_graph.hpp"
#include "core/engine.hpp"
#include "testing/reference_eager.hpp"

namespace brickdl {
namespace {

/// Everything one graph's variants share: the graph, its input, the oracle
/// outputs, and the accumulating failure list.
struct DiffRun {
  const DiffOptions& o;
  std::string replay_prefix;
  Graph graph;
  WeightStore weights;
  Tensor input;
  Tensor expect;
  int out_id = -1;
  std::vector<DiffFailure> failures;

  DiffRun(Graph graph_in, u64 data_seed, std::string replay_prefix_in,
          const DiffOptions& options)
      : o(options),
        replay_prefix(std::move(replay_prefix_in)),
        graph(std::move(graph_in)),
        weights(data_seed ^ 0x77ull),
        input(graph.node(0).out_shape) {
    Rng rng(data_seed ^ 0xabcdull);
    input.fill_random(rng);
    out_id = graph.outputs()[0];
    expect = run_graph_eager(graph, input, weights)[static_cast<size_t>(out_id)];
  }

  std::string replay(const std::string& variant) const {
    return replay_prefix + " --variant " + variant;
  }

  bool enabled(const std::string& variant) const {
    return o.variant_filter.empty() ||
           variant.find(o.variant_filter) != std::string::npos;
  }

  void check(const std::string& variant, const Tensor& got) {
    if (got.dims() != expect.dims()) {
      failures.push_back({variant, 0.0,
                          "output shape " + got.dims().str() + " != oracle " +
                              expect.dims().str(),
                          replay(variant)});
      return;
    }
    double worst = 0.0;
    i64 worst_i = -1;
    for (i64 i = 0; i < expect.elements(); ++i) {
      const double a = got.flat(i);
      const double b = expect.flat(i);
      double diff;
      if (std::isnan(a) || std::isnan(b)) {
        // NaN on both sides is the same non-finite math — agreement. NaN on
        // one side only is an unconditional mismatch.
        diff = (std::isnan(a) && std::isnan(b))
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
      } else {
        diff = std::abs(a - b);
      }
      if (diff > worst) {
        worst = diff;
        worst_i = i;
      }
    }
    if (worst > o.tolerance) {
      std::ostringstream os;
      os << "max |got-oracle| = " << worst;
      if (worst_i >= 0) {
        os << " at flat index " << worst_i << " (got " << got.flat(worst_i)
           << ", oracle " << expect.flat(worst_i) << ")";
      }
      failures.push_back({variant, worst, os.str(), replay(variant)});
    }
  }

  /// Run `body` (which must return the output tensor) under the variant
  /// name, converting exceptions into failures with replay lines.
  template <typename Body>
  void variant(const std::string& name, Body&& body) {
    if (!enabled(name)) return;
    try {
      check(name, body());
    } catch (const std::exception& e) {
      failures.push_back({name, 0.0, std::string("threw: ") + e.what(),
                          replay(name)});
    }
  }

  Tensor engine_output(const EngineOptions& eo, int backend_workers) {
    Engine engine(graph, eo);
    NumericBackend backend(graph, weights, backend_workers);
    const EngineResult result = engine.run_checked(backend, &input).take();
    return backend.read(result.output);
  }

  void engine_variant(const std::string& name, const EngineOptions& eo,
                      int backend_workers) {
    variant(name, [&] { return engine_output(eo, backend_workers); });
  }

  void run_all() {
    if (o.kernel_reference) {
      // Node-by-node region kernels over full tensors: isolates the kernels
      // themselves from any brick/partition machinery.
      variant("kernel-reference", [&] {
        return run_graph_reference(graph, input,
                                   weights)[static_cast<size_t>(out_id)];
      });
    }
    if (o.vendor) {
      EngineOptions eo;
      eo.force_strategy = Strategy::kVendor;
      engine_variant("vendor", eo, 4);
      if (o.memo_parallel) {
        // Tiles on the run's pool, refined to 4 per worker; 13-wide start
        // tiles refine through odd, ragged sides (13 → 7 → 4).
        eo.memo_parallel = true;
        eo.memo_workers = 4;
        engine_variant("vendor-par", eo, 4);
        eo.vendor_tile_side = 13;
        engine_variant("vendor-par-t13", eo, 4);
      }
    }
    if (o.fused_baselines) {
      for (FusionRules rules :
           {FusionRules::kNone, FusionRules::kConvPointwise,
            FusionRules::kAggressive}) {
        variant(std::string("fused-") + fusion_rules_name(rules), [&] {
          NumericBackend backend(graph, weights, 4);
          FusedGraphExecutor exec(graph, backend, rules);
          backend.bind(exec.tensor_of(0), input);
          exec.run();
          return backend.read(exec.tensor_of(out_id));
        });
      }
    }
    // Full strategy × brick × worker matrix.
    for (i64 side : o.brick_sides) {
      const std::string b = "-b" + std::to_string(side);
      {
        EngineOptions eo;
        eo.force_strategy = Strategy::kPadded;
        eo.force_brick_side = side;
        engine_variant("padded" + b, eo, 4);
        if (o.memo_parallel) {
          eo.memo_parallel = true;
          eo.memo_workers = 4;
          engine_variant("padded" + b + "-par", eo, 4);
        }
      }
      for (int workers : o.worker_counts) {
        const std::string w = "-w" + std::to_string(workers);
        // The plain memo variants pin the barriered schedule; their
        // "-pipeline" twins run the same plan through cross-subgraph
        // chains (DESIGN.md §14). Both must match the oracle bit-exactly,
        // which is the strongest statement of the pipelining invariant:
        // same kernels, same memo slots, only the schedule differs.
        EngineOptions eo;
        eo.force_strategy = Strategy::kMemoized;
        eo.force_brick_side = side;
        eo.memo_workers = workers;
        eo.pipeline_subgraphs = false;
        engine_variant("memo" + b + w, eo, workers);
        eo.pipeline_subgraphs = true;
        engine_variant("memo" + b + w + "-pipeline", eo, workers);
        if (o.memo_parallel) {
          eo.memo_parallel = true;
          eo.pipeline_subgraphs = false;
          engine_variant("memo-par" + b + w, eo, workers);
          eo.pipeline_subgraphs = true;
          engine_variant("memo-par" + b + w + "-pipeline", eo, workers);
        }
      }
    }
  }
};

}  // namespace

u64 graph_seed(u64 seed, int graph_idx) {
  // splitmix-style decorrelation of (sweep seed, index) pairs.
  u64 z = seed + 0x9e3779b97f4a7c15ull * static_cast<u64>(graph_idx + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<DiffFailure> run_differential(u64 seed, int graph_idx,
                                          const DiffOptions& options) {
  const u64 gs = graph_seed(seed, graph_idx);
  std::ostringstream prefix;
  prefix << "--seed " << seed << " --graph-idx " << graph_idx;
  return run_differential_graph(random_graph(gs, options.gen), gs,
                                prefix.str(), options);
}

std::vector<DiffFailure> run_differential_graph(Graph graph, u64 data_seed,
                                                const std::string& replay_prefix,
                                                const DiffOptions& options) {
  DiffRun run(std::move(graph), data_seed, replay_prefix, options);
  run.run_all();
  return std::move(run.failures);
}

}  // namespace brickdl
