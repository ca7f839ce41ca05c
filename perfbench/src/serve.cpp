// The serving tier: open-loop Poisson arrivals into serve::Server at fixed
// rates. A generator thread submits each request at its due time while a
// collector thread resolves the futures alongside it, so every latency is
// read as the request completes and is timed from the request's due time.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

#include "common.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace brickdl;
using serve::RequestResult;
using serve::Server;

namespace {

struct Phase {
  std::vector<double> latency_ms;  ///< successful requests, from due time
  i64 sent = 0, ok = 0, good = 0, shed = 0, failed = 0;
  i64 depth_max = 0, depth_at_end = 0;
  double lag_max_ms = 0.0;
  double occupancy_sum = 0.0;
  double first_due = 0.0, last_done = 0.0;

  double completed_rps() const {
    return last_done > first_due ? static_cast<double>(ok) /
                                       (last_done - first_due)
                                 : 0.0;
  }
  /// ≥ 99% of sent requests succeeded within the limit, and the queue was
  /// not left growing when the schedule ended.
  bool meets_limit(int max_batch) const {
    return sent > 0 && static_cast<double>(good) >= 0.99 * sent &&
           depth_at_end <= max_batch;
  }
};

/// Arrival offsets of a Poisson process conditioned on `n` arrivals in
/// [0, seconds): n sorted uniform draws.
std::vector<double> arrivals(u64 seed, int phase, i64 n, double seconds) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + static_cast<u64>(phase) + 7);
  std::vector<double> offsets(static_cast<size_t>(n));
  for (double& t : offsets) t = rng.next_float(0.0f, 1.0f) * seconds;
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

/// Sleep until ~2 ms before `t`, then spin: a timer wakeup on a virtual
/// machine can be late by milliseconds, which would skew the schedule.
void wait_until(double t) {
  const double slack = t - now_s() - 0.002;
  if (slack > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(slack));
  }
  while (now_s() < t) std::this_thread::yield();
}

/// Poll instead of blocking, so a completion is stamped when it happens, not
/// when a sleeping collector thread is next scheduled.
RequestResult await(std::future<RequestResult>& future) {
  while (future.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    std::this_thread::yield();
  }
  return future.get();
}

Phase run_phase(Server& server, const std::vector<Tensor>& inputs,
                const std::vector<std::string>& expected, const ServeRate& rate,
                double seconds, int phase_index, u64 seed, SpanRecorder& spans,
                Results& r) {
  SpanRecorder::Scoped phase_span(spans, std::string("bench.rate_") + rate.name);
  const i64 n = std::max<i64>(1, std::llround(rate.rps * seconds));
  const std::vector<double> offsets = arrivals(seed, phase_index, n, seconds);

  struct Sent {
    std::future<RequestResult> future;
    double due = 0.0;
    size_t input = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> channel;
  bool generator_done = false;

  Phase p;
  const double start = now_s() + 0.005;
  p.first_due = start + offsets.front();

  std::thread generator([&] {
    for (i64 i = 0; i < n; ++i) {
      const double due = start + offsets[static_cast<size_t>(i)];
      wait_until(due);
      p.lag_max_ms = std::max(p.lag_max_ms, (now_s() - due) * 1e3);
      const size_t input = static_cast<size_t>(i) % inputs.size();
      Sent sent;
      {
        SpanRecorder::Scoped span(spans, "serve.submit", phase_span.id());
        sent.future = server.submit(inputs[input]);
      }
      sent.due = due;
      sent.input = input;
      const i64 depth = server.queue_depth();
      p.depth_max = std::max(p.depth_max, depth);
      if (i == n - 1) p.depth_at_end = depth;
      std::lock_guard<std::mutex> lock(mu);
      channel.push_back(std::move(sent));
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
    cv.notify_one();
  });

  std::thread collector([&] {
    for (;;) {
      Sent sent;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !channel.empty() || generator_done; });
        if (channel.empty()) return;
        sent = std::move(channel.front());
        channel.pop_front();
      }
      const RequestResult result = await(sent.future);
      const double done = now_s();
      ++p.sent;
      p.last_done = std::max(p.last_done, done);
      if (result.shed) {
        ++p.shed;
      } else if (!result.status.ok()) {
        ++p.failed;
      } else {
        ++p.ok;
        const double ms = (done - sent.due) * 1e3;
        p.latency_ms.push_back(ms);
        p.good += ms <= kServeLimitMs;
        p.occupancy_sum += static_cast<double>(result.batch_requests);
      }
      r.check(result.status.ok() &&
                  digest(result.output) == expected[sent.input],
              std::string("serve/") + rate.name + ": " +
                  (result.status.ok() ? "output differs from the eager oracle"
                                      : result.status.message()));
    }
  });
  generator.join();
  collector.join();

  std::fprintf(stderr,
               "perfbench: serve %-4s %5.1f req/s: sent %lld ok %lld "
               "within-limit %lld shed %lld failed %lld, p50 %.2f ms, "
               "p99 %.2f ms, end depth %lld\n",
               rate.name, rate.rps, static_cast<long long>(p.sent),
               static_cast<long long>(p.ok), static_cast<long long>(p.good),
               static_cast<long long>(p.shed), static_cast<long long>(p.failed),
               median(p.latency_ms), percentile(p.latency_ms, 99),
               static_cast<long long>(p.depth_at_end));
  return p;
}

/// One request submitted alone and waited for; returns its latency.
double solo_request(Server& server, const Tensor& input,
                    const std::string& expected, SpanRecorder& spans,
                    Results& r) {
  const double t0 = now_s();
  std::future<RequestResult> future;
  {
    SpanRecorder::Scoped span(spans, "serve.submit");
    future = server.submit(input);
  }
  const RequestResult result = await(future);
  const double dt = now_s() - t0;
  r.check(result.status.ok() && digest(result.output) == expected,
          "serve: solo output differs from the eager oracle");
  return dt;
}

}  // namespace

void serve_tier(u64 seed, const obs::Json& digests, SpanRecorder& spans,
                Results& r) {
  SpanRecorder::Scoped tier_span(spans, "bench.serve_tier");
  std::vector<std::string> expected;
  for (const obs::Json& d : digests.elements()) expected.push_back(d.str());
  const serve::ServeOptions options;
  const Graph graph = build_resnet50(serve_config());
  WeightStore weights(seed);
  std::vector<Tensor> inputs;
  for (int k = 0; k < kServeInputs; ++k) {
    inputs.push_back(
        make_input(input_node(graph).out_shape, seed, static_cast<u64>(k)));
  }
  Server server(graph, weights, options);

  // Solo latency on the idle server (the first request also warms it up).
  solo_request(server, inputs[0], expected[0], spans, r);
  std::vector<double> solo;
  for (int i = 0; i < 20; ++i) {
    const size_t k = static_cast<size_t>(i) % inputs.size();
    solo.push_back(solo_request(server, inputs[k], expected[k], spans, r));
  }

  // The fixed rates in order, each draining before the next.
  std::vector<Phase> phases;
  int index = 0;
  for (const ServeRate& rate : serve_rates()) {
    phases.push_back(run_phase(server, inputs, expected, rate,
                               kServeSeconds * rate.share, index++, seed,
                               spans, r));
  }
  for (size_t i = 0; i < phases.size(); ++i) {
    r.samples_ms[std::string("serve_") + serve_rates()[i].name] =
        phases[i].latency_ms;
  }
  const Phase& low = phases[0];
  const Phase& mid = phases[1];
  const Phase& high = phases[2];

  auto& x = r.metrics;
  x["serve.solo_ms"] = median(solo) * 1e3;
  x["serve.p50_ms.low"] = median(low.latency_ms);
  x["serve.p99_ms.low"] = percentile(low.latency_ms, 99);
  x["serve.p50_ms.mid"] = median(mid.latency_ms);
  x["serve.p99_ms.mid"] = percentile(mid.latency_ms, 99);
  x["serve.overhead_ms"] = x["serve.p50_ms.low"] - x["serve.solo_ms"];
  x["serve.served_rps.high"] = high.completed_rps();
  // Goodput: completion rate of good requests at the highest rate that
  // meets the latency limit.
  double goodput = 0.0;
  for (const Phase& p : phases) {
    if (p.meets_limit(options.max_batch)) {
      goodput = static_cast<double>(p.good) / (p.last_done - p.first_due);
    }
  }
  x["serve.goodput_rps"] = goodput;
  double occupancy = 0.0, lag = 0.0;
  i64 ok = 0, shed = 0, failed = 0, depth = 0;
  for (const Phase& p : phases) {
    occupancy += p.occupancy_sum;
    ok += p.ok;
    shed += p.shed;
    failed += p.failed;
    depth = std::max(depth, p.depth_max);
    lag = std::max(lag, p.lag_max_ms);
  }
  x["serve.occupancy"] = ok ? occupancy / static_cast<double>(ok) : 0.0;
  x["serve.shed"] = static_cast<double>(shed);
  x["serve.failed"] = static_cast<double>(failed);
  x["serve.queue_depth_max"] = static_cast<double>(depth);
  x["serve.generator_lag_ms"] = lag;
}

}  // namespace perfbench
