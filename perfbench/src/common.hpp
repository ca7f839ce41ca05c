// Shared pieces of the end-to-end benchmark: workload definitions, seeded
// inputs, timing and statistics, output digests, memory probes, the
// in-memory span recorder behind the traced run, and the per-layer helpers
// that read the result structs the library's public calls return.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "models/models.hpp"
#include "obs/json.hpp"

namespace perfbench {

using brickdl::Graph;
using brickdl::i64;
using brickdl::Tensor;
using brickdl::u64;

// ---- command line --------------------------------------------------------

struct Args {
  std::string mode;      ///< "measure" or "reference"
  std::string workload;  ///< resnet50-host | fig07-sim
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect;    ///< reference JSON (measure mode)
  std::string out;       ///< result JSON written here
  std::string out_dir;   ///< traced run: Chrome trace + per-layer rows
};

// ---- workloads -------------------------------------------------------------

/// ResNet-50 at batch 1, 224², width/4: the host-inference model.
brickdl::ModelConfig host_config();
/// ResNet-50 at batch 1, 32², width/4: the serving model.
brickdl::ModelConfig serve_config();
/// Engine options of the host workload: defaults plus memo_parallel on 4.
brickdl::EngineOptions host_engine_options();

/// One model of the simulator workload (fig07_end_to_end --quick).
struct SimModel {
  brickdl::ModelBuilder builder;
  brickdl::ModelConfig config;
  int max_layers;
};
std::vector<SimModel> sim_models();

/// Distinct serve inputs cycled by the request generator (each one is
/// checked against its own oracle output).
inline constexpr int kServeInputs = 8;

/// Open-loop serve rates (requests/s), frozen from the seed's capacity
/// probe (README.md), the seconds the serving-tier probe spends on them, and
/// the latency limit goodput is judged against.
struct ServeRate {
  const char* name;
  double rps;
  double share;  ///< share of kServeSeconds spent at this rate
};
std::vector<ServeRate> serve_rates();
inline constexpr double kServeSeconds = 12.0;
inline constexpr double kServeLimitMs = 250.0;

// ---- inputs, outputs -------------------------------------------------------

/// The graph's single kInput node.
const brickdl::Node& input_node(const Graph& graph);
/// Input values in [-1, 1) drawn from (seed, index).
Tensor make_input(const brickdl::Shape& shape, u64 seed, u64 index);
/// FNV-1a over the tensor's float bits: equal digests = bit-identical.
std::string digest(const Tensor& t);

// ---- clocks, statistics, memory -----------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();
double current_rss_mb();

// ---- spans (traced run) ----------------------------------------------------

/// In-memory span recorder. Spans are recorded only around the benchmark's
/// own calls into the library; each carries name, start, end, thread and
/// the span that was open on the same thread when it began (or an explicit
/// cross-thread parent).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;  ///< seconds, steady clock
    int parent = -1;
    int tid = 0;
  };

  /// Disabled recorders make Scoped spans free.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  class Scoped {
   public:
    Scoped(SpanRecorder& rec, std::string name, int parent = -2);
    ~Scoped();
    int id() const { return id_; }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    SpanRecorder& rec_;
    int id_ = -1;
  };

  /// Chrome trace JSON ("X" events, one tid per recording thread).
  brickdl::obs::Json chrome_trace() const;
  /// Self time per layer (the span-name prefix before the first '.'): a
  /// span's duration minus the part its same-thread children cover.
  std::map<std::string, double> self_seconds_by_layer() const;

 private:
  int begin(std::string name, int parent);
  void end(int id);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- results ---------------------------------------------------------------

struct Results {
  std::map<std::string, double> metrics;
  /// Raw latency samples (ms) behind the latency metrics, kept in the
  /// result file for readers who want other percentiles.
  std::map<std::string, std::vector<double>> samples_ms;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

// ---- per-layer helpers -----------------------------------------------------

/// partition.* metrics of an engine's plan (merged share, strategy counts,
/// predicted milliseconds on the partition's machine).
void partition_metrics(const Graph& graph, const brickdl::Engine& engine,
                       const brickdl::EngineOptions& options, Results& r);

/// Per-strategy attribution of run_checked results.
struct RunAttribution {
  double run_s = 0.0;
  double padded_s = 0.0, memoized_s = 0.0, vendor_s = 0.0;
  i64 fallback_attempts = 0;
  i64 conflict_atomics = 0;
  double idle_tail_frac_sum = 0.0;
  int memo_reports = 0;
};
/// Add one run_checked result (which took `run_s`) into `into`.
void attribute(const brickdl::EngineResult& result, double run_s,
               RunAttribution& into);
/// engine.* and memo.* metrics from several attributed runs (medians).
void engine_metrics(const std::vector<RunAttribution>& runs, Results& r);

/// ops.* metrics from per-node rows: every non-input node runs once as a
/// single-layer vendor subgraph (plan_subgraph + run_planned_subgraph_checked)
/// and once through execute_node_full, with the obs::predict_subgraph
/// prediction beside it. Rows go to `rows_path`; outputs of the two paths
/// are compared bit for bit.
void layer_rows(const Graph& graph, const Tensor& input,
                brickdl::WeightStore& weights, SpanRecorder& spans,
                const std::string& rows_path, Results& r);

/// engine.rss_growth_mb_per_run: `runs` run_checked calls on one backend.
double rss_growth_mb_per_run(brickdl::Engine& engine, brickdl::Backend& backend,
                             const Tensor* input, int runs);

/// Copy a reference's {metric name: value} object into the results.
void copy_metrics(const brickdl::obs::Json& object, Results& r);

/// Write the trace (validated with obs::validate_chrome_trace) and record
/// self_s.<layer> for every library layer the spans cover; a trace that
/// does not validate counts as a failure.
void write_trace(const SpanRecorder& spans, const std::string& out_dir,
                 const std::string& workload, Results& r);

// ---- modeled A100 surface --------------------------------------------------

/// Reference process: the modeled surface of one model, BrickDL (the
/// conv+pointwise rewrite, then Engine on a fresh simulator) beside the cuDNN
/// baseline (bench::run_baseline), as {metric name: value}.
brickdl::obs::Json modeled_reference(const SimModel& model);
/// fig07-sim reference: the cuDNN baseline of both models (seed-free).
brickdl::obs::Json sim_reference();

// ---- workloads ---------------------------------------------------------------

/// Reference process: eager-oracle digests and the modeled surface of the
/// workload's model, written as JSON to args.out.
int run_reference(const Args& args);

/// Each workload reads its reference JSON `ref`: oracle digests and the
/// modeled surface for resnet50-host, the cuDNN baseline for fig07-sim.
void run_host(const Args& args, const brickdl::obs::Json& ref, Results& r);
void run_sim(const Args& args, const brickdl::obs::Json& ref, Results& r);

/// The serving tier's per-layer serve.* metrics: ResNet-50 32² width/4
/// behind serve::Server with default options, solo requests, then seeded
/// open-loop arrivals at each serve_rates() rate. `digests` are the eager
/// oracle's outputs for the kServeInputs seeded inputs.
void serve_tier(u64 seed, const brickdl::obs::Json& digests,
                SpanRecorder& spans, Results& r);

}  // namespace perfbench
