// Kernel-hot-loop microbenchmark (ISSUE 4): measures the three layers of the
// merged-execution fast path in isolation —
//   * conv/pool interior fast path vs the generic clamping path (conv:
//     3x3, 1x1 and 3x3 stride 2), on a region with enough halo that the
//     interior covers the whole output (the merged-execution steady state),
//     plus single 4x4 bricks shaped like ResNet-50 res3/res4 layers; conv
//     rows also report the fast path's GFLOP/s;
//   * the same kernels on an exact window, where boundary slabs run through
//     the generic code (the brick-edge case);
//   * ThreadPool::parallel_for dispatch overhead across grain sizes.
//
// Doubles as a correctness smoke (CTest test `mb_kernels_smoke`, label
// `perf`): every timed kernel pair is first checked bit-exact, and any
// mismatch fails the run. Timings are printed for humans and, with
// `--json PATH`, written as a machine-readable baseline (the committed
// BENCH_kernels.json was recorded with `--quick` on the CI reference host;
// absolute numbers are host-dependent — compare ratios, not nanoseconds).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/halo.hpp"
#include "ops/dispatch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace brickdl;

struct Result {
  std::string name;
  double ns_per_call = 0.0;
  i64 calls = 0;
  double gflops = 0.0;  // conv rows only
};

/// Median-of-3 timing of `calls` invocations of `fn` (one untimed warmup).
template <typename Fn>
double time_ns_per_call(Fn&& fn, i64 calls) {
  fn();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (i64 i = 0; i < calls; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(calls);
    if (rep == 0 || ns < best) best = ns;  // min-of-3: least noise intrusion
  }
  return best;
}

/// One stencil workload: a single conv or pool node plus a seeded input
/// window widened by `margin` around the exact window of the full output.
struct StencilCase {
  Graph g{"mb"};
  int node_id = -1;
  std::vector<float> window;
  std::vector<float> weights;
  RegionInput ri;
  Dims out_lo, out_extent;
  size_t out_elems = 0;

  void finish(i64 margin, u64 seed) {
    const Node& node = g.node(node_id);
    out_extent = node.out_shape.blocked_dims();
    out_lo = Dims::filled(out_extent.rank(), 0);
    Dims in_lo, in_extent;
    input_window_blocked(node, out_lo, out_extent, &in_lo, &in_extent);
    for (int d = 1; d < in_lo.rank(); ++d) {
      in_lo[d] -= margin;
      in_extent[d] += 2 * margin;
    }
    const i64 in_ch = g.input_shapes(node)[0].channels();
    window.resize(static_cast<size_t>(in_ch * in_extent.product()));
    Rng rng(seed);
    for (float& v : window) v = rng.next_float(-1.0f, 1.0f);
    weights.resize(static_cast<size_t>(node.weight_elements()));
    for (float& v : weights) v = rng.next_float(-0.1f, 0.1f);
    ri = RegionInput{window, in_lo, in_extent, in_ch};
    out_elems =
        static_cast<size_t>(node.out_shape.channels() * out_extent.product());
  }
};

/// A k×k convolution from `ch` to `out_ch` channels (default `ch`) with
/// stride `stride` and "same" padding (k/2).
StencilCase make_conv(i64 ch, i64 side, i64 margin, i64 k = 3,
                      i64 stride = 1, i64 out_ch = 0) {
  StencilCase c;
  const int x = c.g.add_input("in", Shape{1, ch, side, side});
  c.node_id = c.g.add_conv(x, "conv", Dims{k, k}, out_ch > 0 ? out_ch : ch,
                           Dims{stride, stride}, Dims{k / 2, k / 2});
  c.finish(margin, /*seed=*/21);
  return c;
}

StencilCase make_pool(i64 ch, i64 side, i64 margin) {
  StencilCase c;
  const int x = c.g.add_input("in", Shape{1, ch, side, side});
  c.node_id = c.g.add_pool(x, "pool", PoolKind::kMax, Dims{3, 3}, Dims{1, 1},
                           Dims{1, 1});
  c.finish(margin, /*seed=*/22);
  return c;
}

/// Times fast vs generic on one case; exits nonzero later if they diverge.
bool bench_pair(const StencilCase& c, const std::string& label, i64 calls,
                std::vector<Result>* out) {
  const Node& node = c.g.node(c.node_id);
  std::vector<float> fast(c.out_elems, -1.0f), generic(c.out_elems, -2.0f);
  const bool is_conv = node.kind == OpKind::kConv;
  auto run_fast = [&] {
    if (is_conv) {
      conv_region(node, c.ri, c.weights, c.out_lo, c.out_extent, fast);
    } else {
      pool_region(node, c.ri, c.out_lo, c.out_extent, fast);
    }
  };
  auto run_generic = [&] {
    if (is_conv) {
      conv_region_generic(node, c.ri, c.weights, c.out_lo, c.out_extent,
                          generic);
    } else {
      pool_region_generic(node, c.ri, c.out_lo, c.out_extent, generic);
    }
  };
  run_fast();
  run_generic();
  if (std::memcmp(fast.data(), generic.data(),
                  c.out_elems * sizeof(float)) != 0) {
    std::fprintf(stderr, "mb_kernels: %s fast path is NOT bit-exact\n",
                 label.c_str());
    return false;
  }
  const double fast_ns = time_ns_per_call(run_fast, calls);
  const double gen_ns = time_ns_per_call(run_generic, calls);
  // Conv flops: one multiply and one add per (output, tap, group channel).
  const double flops =
      is_conv ? 2.0 * static_cast<double>(c.out_elems) *
                    static_cast<double>(node.weight_elements() /
                                        node.attrs.out_channels)
              : 0.0;
  out->push_back({label + "/fast", fast_ns, calls, flops / fast_ns});
  out->push_back({label + "/generic", gen_ns, calls, flops / gen_ns});
  std::printf("%-28s fast %10.0f ns  generic %10.0f ns  speedup %6.2fx",
              label.c_str(), fast_ns, gen_ns, gen_ns / fast_ns);
  if (is_conv) std::printf("  %6.2f GFLOP/s", flops / fast_ns);
  std::printf("\n");
  return true;
}

/// parallel_for dispatch overhead: trivial per-index work, so the measured
/// ns/index is claim + call overhead at each grain.
void bench_grain_sweep(i64 n, std::vector<Result>* out) {
  ThreadPool pool(4);
  std::vector<i64> sink(4 * 16, 0);  // one padded slot per worker
  for (i64 grain : {i64{1}, i64{16}, i64{256}, i64{2048}}) {
    const double ns = time_ns_per_call(
        [&] {
          pool.parallel_for(
              n, [&](i64 i, int w) { sink[static_cast<size_t>(w) * 16] += i; },
              grain);
        },
        /*calls=*/3);
    const double per_index = ns / static_cast<double>(n);
    out->push_back({"parallel_for/grain" + std::to_string(grain), per_index,
                    3 * n});
    std::printf("parallel_for grain %-5lld %8.1f ns/index  (n=%lld)\n",
                static_cast<long long>(grain), per_index,
                static_cast<long long>(n));
  }
}

void write_json(const std::string& path, bool quick,
                const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "mb_kernels: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"mb_kernels\",\n  \"mode\": \"%s\",\n",
               quick ? "quick" : "full");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_call\": %.1f, "
                 "\"calls\": %lld",
                 results[i].name.c_str(), results[i].ns_per_call,
                 static_cast<long long>(results[i].calls));
    if (results[i].gflops > 0.0) {
      std::fprintf(f, ", \"gflops\": %.2f", results[i].gflops);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: mb_kernels [--quick] [--json PATH]\n");
      return 2;
    }
  }

  const i64 ch = quick ? 16 : 64;
  const i64 side = quick ? 16 : 32;
  const i64 calls = quick ? 20 : 200;
  std::printf("== mb_kernels: fast-path vs generic region kernels (%s) ==\n",
              quick ? "quick" : "full");

  std::vector<Result> results;
  bool ok = true;
  // margin 1 covers every 3x3 tap: the interior is the whole region.
  ok &= bench_pair(make_conv(ch, side, 1), "conv3x3/interior", calls,
                   &results);
  // margin 0: boundary rows/columns run the generic clamping path.
  ok &= bench_pair(make_conv(ch, side, 0), "conv3x3/boundary", calls,
                   &results);
  // The vectorized conv micro-kernel's other two shapes: pointwise (1x1)
  // and stride-2 strips.
  ok &= bench_pair(make_conv(ch, side, 0, /*k=*/1), "conv1x1/interior", calls,
                   &results);
  ok &= bench_pair(make_conv(ch, side, 1, /*k=*/3, /*stride=*/2),
                   "conv3x3s2/interior", calls, &results);
  // One 4x4 brick of a res3/res4 layer (width/4 ResNet-50 channel counts),
  // with the halo the merged executors gather: what one per-brick kernel
  // call costs on the host path.
  ok &= bench_pair(make_conv(64, 4, 1), "res-brick/conv3x3-64", calls,
                   &results);
  ok &= bench_pair(make_conv(64, 4, 0, /*k=*/1, /*stride=*/1, 256),
                   "res-brick/conv1x1-64to256", calls, &results);
  ok &= bench_pair(make_conv(256, 4, 0, /*k=*/1, /*stride=*/1, 64),
                   "res-brick/conv1x1-256to64", calls, &results);
  ok &= bench_pair(make_pool(ch, side, 1), "pool3x3/interior", calls,
                   &results);
  ok &= bench_pair(make_pool(ch, side, 0), "pool3x3/boundary", calls,
                   &results);
  bench_grain_sweep(quick ? i64{1} << 13 : i64{1} << 16, &results);

  if (!json_path.empty()) write_json(json_path, quick, results);
  if (!ok) return 1;
  std::printf("mb_kernels: all fast paths bit-exact\n");
  return 0;
}
