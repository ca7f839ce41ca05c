#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "ops/dispatch.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace brickdl;

// ---- workloads -------------------------------------------------------------

ModelConfig host_config() {
  ModelConfig c;
  c.batch = 1;
  c.spatial = 224;
  c.width_div = 4;
  return c;
}

ModelConfig serve_config() {
  ModelConfig c;
  c.batch = 1;
  c.spatial = 32;
  c.width_div = 4;
  return c;
}

EngineOptions host_engine_options() {
  EngineOptions o;
  o.memo_parallel = true;
  o.memo_workers = 4;
  return o;
}

std::vector<SimModel> sim_models() {
  auto cfg = [](i64 batch, i64 spatial, i64 width_div) {
    ModelConfig c;
    c.batch = batch;
    c.spatial = spatial;
    c.width_div = width_div;
    c.classes = 100;
    return c;
  };
  return {{&build_resnet50, cfg(16, 112, 2), 12},
          {&build_darknet53, cfg(16, 224, 4), 6}};
}

std::vector<ServeRate> serve_rates() {
  return {{"low", 12.0, 0.65}, {"mid", 40.0, 0.15}, {"high", 80.0, 0.2}};
}

// ---- inputs, outputs -------------------------------------------------------

const Node& input_node(const Graph& graph) {
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) return node;
  }
  BDL_CHECK_MSG(false, "graph has no input node");
  return graph.node(0);
}

Tensor make_input(const Shape& shape, u64 seed, u64 index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  Tensor t(shape);
  t.fill_random(rng, -1.0f, 1.0f);
  return t;
}

std::string digest(const Tensor& t) {
  u64 h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const size_t n = static_cast<size_t>(t.bytes());
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---- statistics, memory ----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- spans -----------------------------------------------------------------

namespace {
thread_local std::vector<int> open_spans;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next++;
  return index;
}
}  // namespace

SpanRecorder::Scoped::Scoped(SpanRecorder& rec, std::string name, int parent)
    : rec_(rec) {
  if (rec_.enabled_) id_ = rec_.begin(std::move(name), parent);
}

SpanRecorder::Scoped::~Scoped() {
  if (id_ >= 0) rec_.end(id_);
}

int SpanRecorder::begin(std::string name, int parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent >= -1 ? parent
                             : (open_spans.empty() ? -1 : open_spans.back());
  span.tid = thread_index();
  span.start = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  const double t = now_s();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = t;
}

obs::Json SpanRecorder::chrome_trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  obs::Json events = obs::Json::array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::Json e = obs::Json::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", s.tid);
    e.set("ts", (s.start - origin) * 1e6);
    e.set("dur", std::max(0.0, s.end - s.start) * 1e6);
    obs::Json args = obs::Json::object();
    args.set("id", static_cast<i64>(i));
    args.set("parent", s.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  obs::Json doc = obs::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (p.tid != s.tid) continue;  // cross-thread links overlap, not nest
    self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].name.substr(0, spans_[i].name.find('.'))] +=
        std::max(0.0, self[i]);
  }
  return by_layer;
}

// ---- per-layer helpers -----------------------------------------------------

void partition_metrics(const Graph& graph, const Engine& engine,
                       const EngineOptions& options, Results& r) {
  const Partition& p = engine.partition();
  const MachineParams machine = effective_machine(options.partition);
  i64 nodes = 0, merged_nodes = 0, padded = 0, memoized = 0, vendor = 0;
  double predicted = 0.0;
  for (const PlannedSubgraph& planned : p.subgraphs) {
    nodes += static_cast<i64>(planned.sg.nodes.size());
    if (planned.strategy != Strategy::kVendor) {
      merged_nodes += static_cast<i64>(planned.sg.nodes.size());
    }
    padded += planned.strategy == Strategy::kPadded;
    memoized += planned.strategy == Strategy::kMemoized;
    vendor += planned.strategy == Strategy::kVendor;
    predicted += obs::predict_subgraph(graph, planned, machine).seconds;
  }
  auto& m = r.metrics;
  m["partition.merged_node_frac"] +=
      nodes ? static_cast<double>(merged_nodes) / static_cast<double>(nodes)
            : 0.0;
  m["partition.subgraphs.padded"] += static_cast<double>(padded);
  m["partition.subgraphs.memoized"] += static_cast<double>(memoized);
  m["partition.subgraphs.vendor"] += static_cast<double>(vendor);
  m["partition.predicted_ms"] += predicted * 1e3;
}

void attribute(const EngineResult& result, double run_s, RunAttribution& a) {
  a.run_s += run_s;
  for (const SubgraphReport& report : result.reports) {
    switch (report.executed) {
      case Strategy::kPadded: a.padded_s += report.wall_seconds; break;
      case Strategy::kMemoized: a.memoized_s += report.wall_seconds; break;
      default: a.vendor_s += report.wall_seconds; break;
    }
    if (!report.attempts.empty()) {
      a.fallback_attempts += static_cast<i64>(report.attempts.size()) - 1;
    }
    if (report.executed == Strategy::kMemoized && report.memo.bricks_computed) {
      a.conflict_atomics += report.memo.conflict_atomics;
      a.idle_tail_frac_sum += report.memo.idle_tail_fraction;
      ++a.memo_reports;
    }
  }
}

void engine_metrics(const std::vector<RunAttribution>& runs, Results& r) {
  std::vector<double> run_s, padded, memoized, vendor, rest, idle;
  i64 fallbacks = 0, conflicts = 0;
  for (const RunAttribution& a : runs) {
    run_s.push_back(a.run_s);
    padded.push_back(a.padded_s);
    memoized.push_back(a.memoized_s);
    vendor.push_back(a.vendor_s);
    rest.push_back(a.run_s - a.padded_s - a.memoized_s - a.vendor_s);
    if (a.memo_reports) idle.push_back(a.idle_tail_frac_sum / a.memo_reports);
    fallbacks += a.fallback_attempts;
    conflicts += a.conflict_atomics;
  }
  auto& m = r.metrics;
  m["engine.run_s"] = median(run_s);
  m["engine.run_p90_ms"] = percentile(run_s, 90) * 1e3;
  m["engine.padded_s"] = median(padded);
  m["engine.memoized_s"] = median(memoized);
  m["engine.vendor_s"] = median(vendor);
  m["engine.unattributed_s"] = median(rest);
  m["engine.fallback_attempts"] = static_cast<double>(fallbacks);
  m["memo.idle_tail_frac"] = median(idle);
  m["memo.conflict_atomics"] =
      runs.empty() ? 0.0
                   : static_cast<double>(conflicts) /
                         static_cast<double>(runs.size());
}

namespace {

/// Op classes the ops.* metrics aggregate over.
const char* op_class(const Node& node) {
  switch (node.kind) {
    case OpKind::kConv: {
      const auto& a = node.attrs;
      if (a.stride.product() > 1) return "conv_strided";
      if (a.kernel.product() == 1) return "conv1x1";
      return "conv3x3";
    }
    case OpKind::kPool:
    case OpKind::kGlobalAvgPool:
      return "pool";
    case OpKind::kDense:
      return "dense";
    default:
      return "pointwise";
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) == 0;
}

/// Best of a few timings, repeating short calls until ~20 ms are spent.
template <typename F>
double best_seconds(F&& call) {
  double best = 1e30, spent = 0.0;
  for (int rep = 0; rep < 5 && (rep < 1 || spent < 0.02); ++rep) {
    const double t0 = now_s();
    call();
    const double dt = now_s() - t0;
    best = std::min(best, dt);
    spent += dt;
  }
  return best;
}

}  // namespace

void layer_rows(const Graph& graph, const Tensor& input, WeightStore& weights,
                SpanRecorder& spans, const std::string& rows_path,
                Results& r) {
  SpanRecorder::Scoped layers_span(spans, "bench.layer_rows");
  EngineOptions options;
  const MachineParams machine = effective_machine(options.partition);
  std::vector<Tensor> outputs(static_cast<size_t>(graph.num_nodes()));

  struct ClassTotals {
    double layer_s = 0.0, kernel_s = 0.0, flops = 0.0, bytes = 0.0;
  };
  std::map<std::string, ClassTotals> classes;
  obs::Json rows = obs::Json::array();

  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      outputs[static_cast<size_t>(node.id)] = input;
      continue;
    }
    std::vector<const Tensor*> ins;
    for (int p : node.inputs) ins.push_back(&outputs[static_cast<size_t>(p)]);

    // Kernel only: the full-tensor reference call.
    Tensor kernel_out;
    double kernel_s = 0.0;
    {
      SpanRecorder::Scoped span(spans, "ops.execute_node_full");
      kernel_s = best_seconds(
          [&] { kernel_out = execute_node_full(graph, node, ins, weights); });
    }

    // The same node as a single-layer vendor subgraph on a 1-worker backend.
    Subgraph sg;
    sg.nodes = {node.id};
    for (int p : node.inputs) {
      if (std::find(sg.external_inputs.begin(), sg.external_inputs.end(), p) ==
          sg.external_inputs.end()) {
        sg.external_inputs.push_back(p);
      }
    }
    PlannedSubgraph plan;
    if (is_global(node.kind)) {
      plan.sg = sg;  // global ops have no brick plan; they always run vendor
    } else {
      SpanRecorder::Scoped span(spans, "partition.plan_subgraph");
      plan = plan_subgraph(graph, sg, options.partition);
    }
    plan.strategy = Strategy::kVendor;
    plan.sg.merged = false;
    obs::SubgraphPrediction predicted;
    {
      SpanRecorder::Scoped span(spans, "obs.predict_subgraph");
      predicted = obs::predict_subgraph(graph, plan, machine);
    }
    NumericBackend backend(graph, weights, 1);
    std::unordered_map<int, TensorId> io;
    for (int ext : sg.external_inputs) {
      io[ext] = backend.register_tensor(graph.node(ext).out_shape,
                                        Layout::kCanonical, {}, "in");
      backend.bind(io[ext], outputs[static_cast<size_t>(ext)]);
    }
    const TensorId out =
        backend.register_tensor(node.out_shape, Layout::kCanonical, {}, "out");
    double layer_s = 0.0;
    bool ran = true;
    {
      SpanRecorder::Scoped span(spans, "engine.run_planned_subgraph_checked");
      layer_s = best_seconds([&] {
        ran = ran && run_planned_subgraph_checked(graph, plan, backend, io, out,
                                                  options)
                         .ok();
      });
    }
    r.check(ran && same_bits(backend.read(out), kernel_out),
            "layer " + node.name + ": vendor subgraph != execute_node_full");

    const std::vector<Shape> in_shapes = graph.input_shapes(node);
    double bytes = static_cast<double>(node.out_shape.bytes()) +
                   static_cast<double>(node.weight_elements()) * 4.0;
    for (const Shape& s : in_shapes) bytes += static_cast<double>(s.bytes());
    const double node_flops = static_cast<double>(flops(node, in_shapes));

    const std::string cls = op_class(node);
    ClassTotals& c = classes[cls];
    c.layer_s += layer_s;
    c.kernel_s += kernel_s;
    c.flops += node_flops;
    c.bytes += bytes;

    obs::Json row = obs::Json::object();
    row.set("node", node.name);
    row.set("op", op_kind_name(node.kind));
    row.set("class", cls);
    row.set("shape", node.out_shape.str());
    row.set("ns", layer_s * 1e9);
    row.set("kernel_ns", kernel_s * 1e9);
    row.set("gflops", node_flops / layer_s / 1e9);
    row.set("flops", node_flops);
    row.set("bytes", bytes);
    row.set("predicted", predicted.to_json());
    rows.push_back(std::move(row));
    outputs[static_cast<size_t>(node.id)] = std::move(kernel_out);
  }

  double total_s = 0.0;
  for (const auto& [cls, c] : classes) total_s += c.layer_s;
  auto& m = r.metrics;
  for (const auto& [cls, c] : classes) {
    if (cls == "dense") continue;
    const std::string key = "ops." + cls;
    if (cls == "pointwise" || cls == "pool") {
      m[key + ".gbps"] = c.bytes / c.layer_s / 1e9;
    } else {
      m[key + ".gflops"] = c.flops / c.layer_s / 1e9;
    }
    m[key + ".share"] = c.layer_s / total_s;
    m[key + ".copy_frac"] = 1.0 - c.kernel_s / c.layer_s;
  }

  obs::Json doc = obs::Json::object();
  doc.set("schema", "perfbench-layer-rows-v1");
  doc.set("machine_predicted", "A100 cost model (obs::predict_subgraph)");
  doc.set("rows", std::move(rows));
  std::ofstream(rows_path) << doc.dump(1) << "\n";
}

double rss_growth_mb_per_run(Engine& engine, Backend& backend,
                             const Tensor* input, int runs) {
  std::vector<double> rss;
  for (int i = 0; i < runs; ++i) {
    const auto result = engine.run_checked(backend, input);
    BDL_CHECK_MSG(result.ok(), "rss probe run failed");
    rss.push_back(current_rss_mb());
  }
  return runs > 1 ? (rss.back() - rss.front()) / (runs - 1) : 0.0;
}

void copy_metrics(const obs::Json& object, Results& r) {
  for (const auto& [name, value] : object.members()) {
    r.metrics[name] = value.number();
  }
}

void write_trace(const SpanRecorder& spans, const std::string& out_dir,
                 const std::string& workload, Results& r) {
  const obs::Json trace = spans.chrome_trace();
  const Status valid = obs::validate_chrome_trace(trace);
  r.check(valid.ok(), "chrome trace: " + valid.message());
  std::ofstream(out_dir + "/" + workload + "-trace.json") << trace.dump()
                                                          << "\n";
  for (const auto& [layer, seconds] : spans.self_seconds_by_layer()) {
    if (layer != "bench") r.metrics["self_s." + layer] = seconds;
  }
}

}  // namespace perfbench
