// brickdl_cli — inspect and model any zoo network from the command line.
//
//   brickdl_cli <model> [options]
//
//   models:  resnet50 | drn26 | resnet34_3d | darknet53 | vgg16 | deepcam
//            | inception_v4 | @<path>  (load a serialized graph file,
//                                       see graph/serialize.hpp)
//   options:
//     --batch N        batch size                (default 8)
//     --spatial N      input resolution per dim  (default 224; 3D models cube it)
//     --width-div N    divide channel widths     (default 1)
//     --system S       cudnn | torchscript | xla | brickdl | all  (default all)
//     --partition      print the partition plan and exit
//     --dot            print the graph as Graphviz and exit
//     --no-fuse        skip the conv+pointwise rewrite for BrickDL
//     --trace[=PATH]   profiled BrickDL run; write a Chrome/Perfetto trace
//                      (default trace.json; open at https://ui.perfetto.dev)
//     --report[=PATH]  profiled BrickDL run; write the predicted-vs-observed
//                      run report JSON (default report.json) and print the
//                      comparison table
//     --calibration PATH   load a brickdl-calibration-v1 JSON and plan with
//                      the fitted cost-model constants
//     --calibrate-out PATH profiled BrickDL run; fit the cost-model constants
//                      from this run's report and write the
//                      brickdl-calibration-v1 JSON (with residuals) to PATH
//     --metrics-out PATH   write a brickdl-metrics-v1 snapshot of the metrics
//                      registry after the profiled run
//
// Performance numbers come from the simulated A100 (see DESIGN.md §2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "baselines/fused_graph.hpp"
#include "core/engine.hpp"
#include "graph/rewrite.hpp"
#include "graph/serialize.hpp"
#include "models/models.hpp"
#include "obs/calibrate.hpp"
#include "obs/exporter.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

using namespace brickdl;

namespace {

struct Options {
  std::string model;
  ModelConfig config;
  std::string system = "all";
  bool partition_only = false;
  bool dot = false;
  bool fuse = true;
  std::string trace_path;   ///< --trace: Chrome-trace output (empty = off)
  std::string report_path;  ///< --report: run-report JSON output (empty = off)
  std::string calibration_path;   ///< --calibration: constants to load
  std::string calibrate_out;      ///< --calibrate-out: fit output (empty = off)
  std::string metrics_out;        ///< --metrics-out: snapshot output
};

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

bool read_text_file(const std::string& path, std::string* text) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text->append(buffer, n);
  }
  std::fclose(f);
  return true;
}

/// Parse and validate a --calibration file; exits the process with a
/// diagnostic on any failure (a bad calibration should never plan silently).
obs::CalibratedConstants load_calibration(const std::string& path) {
  std::string text;
  if (!read_text_file(path, &text)) {
    std::fprintf(stderr, "cannot open calibration file '%s'\n", path.c_str());
    std::exit(1);
  }
  Result<obs::Json> doc = obs::Json::parse(text);
  if (!doc.ok()) {
    std::fprintf(stderr, "calibration '%s': %s\n", path.c_str(),
                 doc.status().to_string().c_str());
    std::exit(1);
  }
  Result<obs::CalibratedConstants> constants =
      obs::calibration_from_json(doc.value());
  if (!constants.ok()) {
    std::fprintf(stderr, "calibration '%s': %s\n", path.c_str(),
                 constants.status().to_string().c_str());
    std::exit(1);
  }
  return constants.take();
}

ModelBuilder find_builder(const std::string& name) {
  const struct {
    const char* key;
    ModelBuilder builder;
  } table[] = {{"resnet50", &build_resnet50},
               {"drn26", &build_drn26},
               {"resnet34_3d", &build_resnet34_3d},
               {"darknet53", &build_darknet53},
               {"vgg16", &build_vgg16},
               {"deepcam", &build_deepcam},
               {"inception_v4", &build_inception_v4}};
  for (const auto& entry : table) {
    if (name == entry.key) return entry.builder;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: brickdl_cli <model> [--batch N] [--spatial N] "
               "[--width-div N]\n"
               "                   [--system cudnn|torchscript|xla|brickdl|all]"
               " [--partition] [--dot] [--no-fuse]\n"
               "                   [--trace[=t.json]] [--report[=r.json]]\n"
               "                   [--calibration c.json] "
               "[--calibrate-out c.json]\n"
               "                   [--metrics-out m.json]\n"
               "models: resnet50 drn26 resnet34_3d darknet53 vgg16 deepcam "
               "inception_v4\n");
  return 2;
}

struct Modeled {
  double dram_ms = 0.0;
  double compute_ms = 0.0;
  double total_ms = 0.0;
  i64 dram_txns = 0;
};

Modeled run_system(const Graph& graph, const std::string& system,
                   const std::optional<obs::CalibratedConstants>& calibration) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  if (system == "brickdl") {
    EngineOptions eopts;
    eopts.partition.calibration = calibration;
    Engine engine(graph, eopts);
    engine.run_checked(backend).status().throw_if_error();
  } else {
    const FusionRules rules = system == "torchscript"
                                  ? FusionRules::kConvPointwise
                              : system == "xla" ? FusionRules::kAggressive
                                                : FusionRules::kNone;
    FusedGraphExecutor exec(graph, backend, rules, 32);
    exec.run();
    sim.flush();
  }
  const CostModel cost(sim.params());
  const Breakdown b = cost.breakdown(sim.counters(), backend.tally());
  Modeled m;
  m.dram_ms = b.dram * 1e3;
  m.compute_ms = b.compute_side() * 1e3;
  m.total_ms = (b.dram + b.compute_side()) * 1e3;
  m.dram_txns = sim.counters().dram();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opts;
  opts.model = argv[1];
  opts.config.batch = 8;
  opts.config.spatial = 224;
  opts.config.width_div = 1;

  bool bad_value = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // Empty string (never nullptr) when the value is missing, so the parses
    // below stay crash-free; the flag loop then falls out to usage().
    auto next = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      bad_value = true;
      return "";
    };
    // Sizes must be positive integers: a zero from garbage text would divide
    // by zero in the model builders.
    auto positive = [&]() -> long {
      const char* text = next();
      char* end = nullptr;
      const long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || v <= 0) bad_value = true;
      return v;
    };
    if (arg == "--batch") {
      opts.config.batch = positive();
    } else if (arg == "--spatial") {
      opts.config.spatial = positive();
    } else if (arg == "--width-div") {
      opts.config.width_div = positive();
    } else if (arg == "--system") {
      opts.system = next();
      bad_value |= opts.system != "cudnn" && opts.system != "torchscript" &&
                   opts.system != "xla" && opts.system != "brickdl" &&
                   opts.system != "all";
    } else if (arg == "--partition") {
      opts.partition_only = true;
    } else if (arg == "--dot") {
      opts.dot = true;
    } else if (arg == "--no-fuse") {
      opts.fuse = false;
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      opts.trace_path =
          arg.size() > 8 ? arg.substr(8) : std::string("trace.json");
    } else if (arg == "--report" || arg.rfind("--report=", 0) == 0) {
      opts.report_path =
          arg.size() > 9 ? arg.substr(9) : std::string("report.json");
    } else if (arg == "--calibration") {
      opts.calibration_path = next();
    } else if (arg == "--calibrate-out") {
      opts.calibrate_out = next();
    } else if (arg == "--metrics-out") {
      opts.metrics_out = next();
    } else {
      return usage();
    }
  }
  if (bad_value) return usage();

  Graph graph("empty");
  if (!opts.model.empty() && opts.model[0] == '@') {
    std::FILE* f = std::fopen(opts.model.c_str() + 1, "rb");
    if (!f) {
      std::fprintf(stderr, "cannot open graph file '%s'\n",
                   opts.model.c_str() + 1);
      return 1;
    }
    std::string text;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);
    graph = parse_graph(text, opts.model.substr(1));
  } else {
    const ModelBuilder builder = find_builder(opts.model);
    if (!builder) return usage();
    if (opts.model == "resnet34_3d" && opts.config.spatial > 128) {
      opts.config.spatial = 96;  // cubed volumes; keep the simulation tractable
    }
    graph = builder(opts.config);
  }
  std::printf("%s: %d nodes, %.2f GFLOP (batch %lld, %lldx%lld input)\n",
              graph.name().c_str(), graph.num_nodes(),
              static_cast<double>(graph.total_flops()) / 1e9,
              static_cast<long long>(opts.config.batch),
              static_cast<long long>(opts.config.spatial),
              static_cast<long long>(opts.config.spatial));

  if (opts.dot) {
    std::printf("%s", graph.to_dot().c_str());
    return 0;
  }

  const Graph brickdl_graph =
      opts.fuse ? fuse_conv_pointwise(graph) : graph;
  // Load --calibration up front so a missing or malformed file is a hard
  // error on every code path, including the plain comparison table.
  std::optional<obs::CalibratedConstants> calibration;
  if (!opts.calibration_path.empty()) {
    calibration = load_calibration(opts.calibration_path);
  }
  if (opts.partition_only) {
    EngineOptions eopts;
    eopts.partition.calibration = calibration;
    Engine engine(brickdl_graph, eopts);
    std::printf("\n%s", engine.partition().describe(brickdl_graph).c_str());
    std::printf("predicted total: %.3f ms\n",
                predicted_partition_seconds(brickdl_graph, engine.partition(),
                                            effective_machine(
                                                eopts.partition)) *
                    1e3);
    return 0;
  }

  const bool profiled_run =
      !opts.trace_path.empty() || !opts.report_path.empty() ||
      !opts.calibrate_out.empty() || !opts.metrics_out.empty();
  if (profiled_run) {
    // Profiled run: one BrickDL engine pass with the §4 cost model running
    // alongside, tracing enabled for its duration.
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(!opts.trace_path.empty());
    EngineOptions eopts;
    eopts.profile = true;
    eopts.partition.calibration = calibration;
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(brickdl_graph, sim);
    Engine engine(brickdl_graph, eopts);
    Result<EngineResult> run = engine.run_checked(backend);
    obs::Tracer::instance().set_enabled(false);
    if (!run.ok()) {
      std::fprintf(stderr, "brickdl run failed: %s\n",
                   run.status().to_string().c_str());
      return 1;
    }
    const obs::Json report =
        obs::make_run_report(brickdl_graph, run.value(), sim.params());
    if (!opts.trace_path.empty()) {
      if (!write_text_file(opts.trace_path,
                           obs::Tracer::instance().export_chrome_json())) {
        std::fprintf(stderr, "cannot write trace to '%s'\n",
                     opts.trace_path.c_str());
        return 1;
      }
      std::printf("trace: %s (open at https://ui.perfetto.dev)\n",
                  opts.trace_path.c_str());
    }
    if (!opts.report_path.empty()) {
      if (!write_text_file(opts.report_path, report.dump(1) + "\n")) {
        std::fprintf(stderr, "cannot write report to '%s'\n",
                     opts.report_path.c_str());
        return 1;
      }
      std::printf("report: %s\n", opts.report_path.c_str());
    }
    if (!opts.calibrate_out.empty()) {
      // Fit the §4 constants from this run's (predicted, observed) pairs and
      // emit the versioned calibration with its residuals. One run is a
      // small corpus; feeding several reports through a dedicated loop
      // tightens the fit, but even one pins the dominant bandwidth term.
      obs::CalibrationCorpus corpus;
      const Status added = corpus.add_report(report);
      if (!added.ok()) {
        std::fprintf(stderr, "calibration: %s\n", added.to_string().c_str());
        return 1;
      }
      Result<obs::CalibrationFit> fit = corpus.fit(sim.params());
      if (!fit.ok()) {
        std::fprintf(stderr, "calibration: %s\n",
                     fit.status().to_string().c_str());
        return 1;
      }
      if (!write_text_file(opts.calibrate_out,
                           fit.value().to_json().dump(1) + "\n")) {
        std::fprintf(stderr, "cannot write calibration to '%s'\n",
                     opts.calibrate_out.c_str());
        return 1;
      }
      std::printf(
          "calibration: %s (%lld samples, mean rel error %.3f -> %.3f)\n",
          opts.calibrate_out.c_str(),
          static_cast<long long>(fit.value().samples),
          fit.value().stock_mean_rel_error,
          fit.value().calibrated_mean_rel_error);
    }
    if (!opts.metrics_out.empty()) {
      const obs::Json snapshot = obs::metrics_snapshot(obs::metrics(), 0);
      if (!write_text_file(opts.metrics_out, snapshot.dump(1) + "\n")) {
        std::fprintf(stderr, "cannot write metrics to '%s'\n",
                     opts.metrics_out.c_str());
        return 1;
      }
      std::printf("metrics: %s\n", opts.metrics_out.c_str());
    }
    std::printf("\n%s", obs::report_table(report).c_str());
    return 0;
  }

  TextTable table({"system", "total (ms)", "DRAM (ms)", "compute (ms)",
                   "DRAM txns", "rel cuDNN"});
  Modeled base;
  for (const char* system : {"cudnn", "torchscript", "xla", "brickdl"}) {
    if (opts.system != "all" && opts.system != system) continue;
    const Modeled m = run_system(
        std::string(system) == "brickdl" ? brickdl_graph : graph, system,
        calibration);
    if (std::string(system) == "cudnn" || base.total_ms == 0.0) base = m;
    table.add_row({system, TextTable::num(m.total_ms),
                   TextTable::num(m.dram_ms), TextTable::num(m.compute_ms),
                   std::to_string(m.dram_txns),
                   TextTable::num(m.total_ms / base.total_ms)});
    std::printf("%s: done\n", system);
    std::fflush(stdout);
  }
  std::printf("\n%s", table.render().c_str());
  return 0;
}
