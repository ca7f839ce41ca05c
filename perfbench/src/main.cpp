// perfbench: the measured process and the reference process of the
// end-to-end benchmark. run.py drives both; see README.md.
//
//   perfbench reference --workload W --seed N --out ref.json
//       Eager-oracle output digests (run_graph_eager) for the seeded inputs
//       of the host model and of the serving-tier model, plus the modeled
//       A100 surface of the host model; for fig07-sim, the cuDNN baseline of
//       its models (seed-free).
//   perfbench measure --workload W --seed N --seconds S --trace 0|1
//                     --expect ref.json --out result.json --out-dir DIR
//       Runs the workload, checks every output, writes its metrics.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "testing/reference_eager.hpp"

namespace perfbench {
namespace {

using namespace brickdl;

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--expect") args.expect = value;
    else if (key == "--out") args.out = value;
    else if (key == "--out-dir") args.out_dir = value;
    else return false;
  }
  const bool known =
      args.workload == "resnet50-host" || args.workload == "fig07-sim";
  return (args.mode == "measure" || args.mode == "reference") && known &&
         !args.out.empty();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path) << text << "\n";
}

/// Output digests of the eager oracle (run_graph_eager) on ResNet-50 with
/// `config`, for seeded inputs 0..count-1.
obs::Json oracle_digests(const ModelConfig& config, u64 seed, int count) {
  const Graph graph = build_resnet50(config);
  WeightStore weights(seed);
  obs::Json digests = obs::Json::array();
  for (int k = 0; k < count; ++k) {
    const Tensor input =
        make_input(input_node(graph).out_shape, seed, static_cast<u64>(k));
    digests.push_back(digest(run_graph_eager(graph, input, weights).back()));
  }
  return digests;
}

}  // namespace

int run_reference(const Args& args) {
  if (args.workload == "fig07-sim") {
    write_file(args.out, sim_reference().dump(1));
    return 0;
  }
  obs::Json doc = obs::Json::object();
  doc.set("workload", args.workload);
  doc.set("seed", static_cast<i64>(args.seed));
  doc.set("digests", oracle_digests(host_config(), args.seed, 1));
  doc.set("serve_digests",
          oracle_digests(serve_config(), args.seed, kServeInputs));
  doc.set("modeled",
          modeled_reference({&build_resnet50, host_config(),
                             EngineOptions{}.partition.max_layers}));
  write_file(args.out, doc.dump(1));
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench reference|measure --workload W --seed N "
                 "--out F [--seconds S --trace 0|1 --expect F --out-dir D]\n");
    return 2;
  }
  if (args.mode == "reference") return run_reference(args);

  std::ifstream in(args.expect);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = brickdl::obs::Json::parse(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: bad reference %s: %s\n",
                 args.expect.c_str(), parsed.status().message().c_str());
    return 1;
  }
  const brickdl::obs::Json ref = parsed.take();

  Results r;
  if (args.workload == "resnet50-host") run_host(args, ref, r);
  else run_sim(args, ref, r);

  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.metrics["ok_frac"] =
      r.attempted ? 1.0 - static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                  : 0.0;

  brickdl::obs::Json metrics = brickdl::obs::Json::object();
  for (const auto& [name, value] : r.metrics) metrics.set(name, value);
  brickdl::obs::Json errors = brickdl::obs::Json::array();
  for (const std::string& e : r.errors) errors.push_back(e);
  brickdl::obs::Json samples = brickdl::obs::Json::object();
  for (const auto& [name, values] : r.samples_ms) {
    brickdl::obs::Json list = brickdl::obs::Json::array();
    for (double v : values) list.push_back(v);
    samples.set(name, std::move(list));
  }
  brickdl::obs::Json doc = brickdl::obs::Json::object();
  doc.set("attempted", r.attempted);
  doc.set("failed", r.failed);
  doc.set("errors", std::move(errors));
  doc.set("metrics", std::move(metrics));
  doc.set("samples_ms", std::move(samples));
  write_file(args.out, doc.dump(1));
  return 0;
}
