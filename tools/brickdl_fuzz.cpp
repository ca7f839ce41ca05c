// Standalone differential fuzz driver.
//
// Sweep mode (default): generate graphs and run every executor variant
// against the eager oracle, printing one replay line per failure.
//
//   brickdl_fuzz --seed 1 --graphs 200
//
// Replay mode: re-run exactly one graph (optionally one variant), e.g. the
// line a failing test or a previous sweep printed:
//
//   brickdl_fuzz --seed 1 --graph-idx 37 --variant memo-par-b8-w4 --dump
//
// Exit status: 0 when every variant agreed, 1 otherwise, 2 on bad usage.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "graph/serialize.hpp"
#include "testing/differential.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: brickdl_fuzz [options]\n"
         "  --seed N        sweep seed (default 1)\n"
         "  --graphs K      graphs to sweep (default 50)\n"
         "  --graph-idx K   replay one graph index instead of sweeping\n"
         "  --variant S     only run variants whose name contains S\n"
         "  --tolerance X   max |got-oracle| accepted (default 0 = exact)\n"
         "  --max-ops N     cap on generated ops per graph (default 8)\n"
         "  --min-spatial N lower bound on input spatial extents (default 8)\n"
         "  --max-spatial N upper bound on input spatial extents (default 18)\n"
         "  --dump          print the generated graph(s) before running\n"
         "  --quiet         suppress per-graph progress lines\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brickdl;

  u64 seed = 1;
  int graphs = 50;
  int graph_idx = -1;
  bool dump = false;
  bool verbose = true;
  DiffOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric values exit with usage on garbage instead of an uncaught
    // stoll/stod abort.
    auto number = [&](auto parse) {
      const std::string s = value();
      try {
        size_t pos = 0;
        auto v = parse(s, &pos);
        if (pos != s.size()) throw std::invalid_argument(s);
        return v;
      } catch (const std::exception&) {
        std::cerr << "bad numeric value '" << s << "' for " << arg << "\n";
        usage();
        std::exit(2);
      }
    };
    auto as_i64 = [&] {
      return number([](const std::string& s, size_t* p) { return std::stoll(s, p); });
    };
    if (arg == "--seed") {
      seed = static_cast<u64>(as_i64());
    } else if (arg == "--graphs") {
      graphs = static_cast<int>(as_i64());
    } else if (arg == "--graph-idx") {
      graph_idx = static_cast<int>(as_i64());
    } else if (arg == "--variant") {
      options.variant_filter = value();
    } else if (arg == "--tolerance") {
      options.tolerance =
          number([](const std::string& s, size_t* p) { return std::stod(s, p); });
    } else if (arg == "--max-ops") {
      options.gen.max_ops = static_cast<int>(as_i64());
    } else if (arg == "--min-spatial") {
      options.gen.min_spatial = as_i64();
    } else if (arg == "--max-spatial") {
      options.gen.max_spatial = as_i64();
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--quiet") {
      verbose = false;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      usage();
      return 2;
    }
  }

  const int lo = graph_idx >= 0 ? graph_idx : 0;
  const int hi = graph_idx >= 0 ? graph_idx + 1 : graphs;
  std::vector<DiffFailure> failures;
  for (int idx = lo; idx < hi; ++idx) {
    const Graph g = random_graph(graph_seed(seed, idx), options.gen);
    if (dump) {
      std::cout << "# graph " << idx << " (" << g.name() << ")\n"
                << serialize_graph(g) << "\n";
    }
    std::vector<DiffFailure> f = run_differential(seed, idx, options);
    if (verbose) {
      std::cerr << "[fuzz] graph " << idx << " '" << g.name()
                << "' nodes=" << g.num_nodes() << " input="
                << g.node(0).out_shape.str() << " -> "
                << (f.empty() ? "ok" : "FAIL") << "\n";
    }
    for (DiffFailure& one : f) failures.push_back(std::move(one));
  }

  for (const DiffFailure& f : failures) {
    std::cout << "FAIL " << f.variant << ": " << f.detail
              << "\n  replay: brickdl_fuzz " << f.replay << "\n";
  }
  if (failures.empty()) {
    std::cout << "all " << (hi - lo) << " graph(s) agreed across variants\n";
    return 0;
  }
  std::cout << failures.size() << " failing variant run(s)\n";
  return 1;
}
