// brickdl_serve — replay a request trace through the serving front-end
// (DESIGN.md §10), or drive it into open-loop overload (DESIGN.md §12),
// and report batching + shedding behaviour.
//
//   brickdl_serve <trace-file> [options]
//   brickdl_serve --demo N     [options]
//   brickdl_serve --overload M [options]
//
// Trace file: one request per line, `#` starts a comment:
//
//   <offset_us> <rows> [<seed>]
//
// where offset_us is the submit time relative to replay start, rows is the
// request's batch-row count, and seed (default: line number) seeds its input
// tensor. `--demo N` synthesizes an N-request trace instead (200 us apart,
// rows cycling 1..3).
//
// `--overload M` ignores the trace: it first estimates the server's solo
// service time, then submits bursts at M× that capacity for --duration-ms,
// with two deadline classes (tight = 3× service time, loose = 30×), and
// reports served/shed counts, SLO attainment, and latency percentiles per
// class. Shed requests (kOverloaded / kDeadlineExceeded / kShuttingDown)
// are the *expected* outcome under overload and do not fail the exit code;
// any other failure does. In replay/demo mode every request is expected to
// be served, so failures AND sheds exit non-zero.
//
//   options:
//     --layers N        conv-chain depth for the served model  (default 3)
//     --spatial N       input resolution                       (default 16)
//     --channels N      input channels                         (default 2)
//     --max-batch N     flush when N requests are pending      (default 8)
//     --max-wait-us N   flush when the oldest waited this long (default 2000)
//     --max-rows N      split batches above N stacked rows     (default 0 = off)
//     --budget N        footprint budget in bytes (0 = engine's L2 budget)
//     --queue-depth N   bounded admission: max queued requests (default 0 = off;
//                       overload mode defaults to 4*max-batch)
//     --deadline-us N   default per-request deadline           (default 0 = off)
//     --breaker-k N     breaker opens after N failed runs      (default 3)
//     --breaker-cooldown N  degraded runs before a probe       (default 16)
//     --overload M      open-loop overload at M x capacity
//     --duration-ms N   overload run length                    (default 1000)
//     --drain-ms N      shutdown drain deadline in overload mode (default 500)
//     --strategy S      padded | memoized  (default: engine picks)
//     --workers N       backend workers per run                (default 4)
//     --seed N          base seed for weights + demo inputs    (default 42)
//     --fast            ignore trace offsets; submit as fast as possible
//     --trace[=PATH]    write a Chrome/Perfetto trace of the serve spans
//                       (default serve_trace.json) — request spans carry
//                       flow links keyed by request id in both modes
//     --events[=PATH]   write the structured serving event log
//                       (default serve_events.json)
//     --metrics-out F   append periodic brickdl-metrics-v1 JSONL snapshots
//     --prom F          write the final metrics as Prometheus text exposition
//     --flight-dir DIR  arm the flight recorder: breaker opens, degraded
//                       runs, and non-shed failures dump brickdl-flight-v1
//                       records into DIR
//     --json F          (overload mode) write machine-readable capacity +
//                       per-class latency stats (brickdl-serve-bench-v1)
//     --calibration F   load brickdl-calibration-v1 constants and plan with
//                       the calibrated cost model
//
// The exit status is nonzero if any request fails (replay mode: fails or is
// shed), so the tool doubles as a smoke check for the serving path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/models.hpp"
#include "obs/calibrate.hpp"
#include "obs/events.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace brickdl;

namespace {

struct TraceEntry {
  i64 offset_us = 0;
  i64 rows = 1;
  u64 seed = 0;
};

struct Options {
  std::string trace_file;
  int demo = 0;
  double overload = 0.0;  // > 0 selects open-loop overload mode
  i64 duration_ms = 1000;
  i64 drain_ms = 500;
  bool queue_depth_set = false;
  int layers = 3;
  i64 spatial = 16;
  i64 channels = 2;
  u64 seed = 42;
  bool fast = false;
  std::string trace_path;
  std::string events_path;
  std::string metrics_out;
  std::string prom_path;
  std::string flight_dir;
  std::string json_path;  ///< overload-mode machine-readable stats
  serve::ServeOptions serve;
};

int usage() {
  std::fprintf(stderr,
               "usage: brickdl_serve <trace-file> | --demo N | --overload M\n"
               "  [--layers N] [--spatial N] [--channels N]\n"
               "  [--max-batch N] [--max-wait-us N] [--max-rows N] "
               "[--budget BYTES]\n"
               "  [--queue-depth N] [--deadline-us N]\n"
               "  [--breaker-k N] [--breaker-cooldown N]\n"
               "  [--duration-ms N] [--drain-ms N]\n"
               "  [--strategy padded|memoized] [--workers N]\n"
               "  [--seed N] [--fast] [--trace[=serve_trace.json]]\n"
               "  [--events[=serve_events.json]] [--metrics-out FILE]\n"
               "  [--prom FILE] [--flight-dir DIR] [--json FILE]\n"
               "  [--calibration FILE]\n"
               "trace file: `<offset_us> <rows> [<seed>]` per line, "
               "# comments\n");
  return 2;
}

bool parse_trace(const std::string& path, std::vector<TraceEntry>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open trace file '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  u64 line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    TraceEntry entry;
    if (!(fields >> entry.offset_us)) continue;  // blank / comment-only line
    if (!(fields >> entry.rows) || entry.offset_us < 0 || entry.rows < 1) {
      std::fprintf(stderr, "%s:%llu: expected `<offset_us> <rows> [<seed>]`\n",
                   path.c_str(), static_cast<unsigned long long>(line_no));
      return false;
    }
    if (!(fields >> entry.seed)) entry.seed = line_no;
    out.push_back(entry);
  }
  return !out.empty();
}

std::vector<TraceEntry> demo_trace(int n, u64 seed) {
  std::vector<TraceEntry> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back({static_cast<i64>(i) * 200, 1 + (i % 3),
                   seed + static_cast<u64>(i)});
  }
  return out;
}

Tensor make_request(const Graph& model, i64 rows, u64 seed) {
  Dims dims = model.node(0).out_shape.dims;
  dims[0] = rows;
  Tensor t(dims);
  Rng rng(seed);
  t.fill_random(rng);
  return t;
}

std::string pctl(const obs::Histogram& h) {
  if (h.count() == 0) return "-";
  return TextTable::num(h.mean()) + " us (p99 <= " +
         std::to_string(h.percentile(0.99)) + ")";
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && n == text.size();
}

i64 counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

void add_shed_rows(TextTable& table) {
  obs::MetricsRegistry& m = obs::metrics();
  table.add_row({"shed (overload)",
                 std::to_string(m.counter("serve.shed.overload").value())});
  table.add_row({"shed (deadline expired)",
                 std::to_string(m.counter("serve.shed.deadline").value())});
  table.add_row({"shed (predicted unmeetable)",
                 std::to_string(m.counter("serve.shed.predicted").value())});
  table.add_row({"shed (shutdown drain)",
                 std::to_string(m.counter("serve.shed.shutdown").value())});
  table.add_row({"deadline missed (served late)",
                 std::to_string(m.counter("serve.deadline.missed").value())});
  table.add_row(
      {"breaker opens/probes/closes",
       std::to_string(m.counter("serve.breaker.opens").value()) + "/" +
           std::to_string(m.counter("serve.breaker.probes").value()) + "/" +
           std::to_string(m.counter("serve.breaker.closes").value())});
}

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Flush every telemetry artifact the flags asked for: Perfetto trace,
/// structured event log, final metrics snapshot (JSONL + Prometheus via the
/// exporter), and a flight-recorder tally. Shared by the overload and
/// replay exits so both modes export identically. Returns false (after
/// reporting which artifact failed) when any write fails.
bool finalize_telemetry(const Options& opts, obs::MetricsExporter* exporter) {
  bool ok = true;
  obs::Tracer::instance().set_enabled(false);
  if (exporter) exporter->stop();  // final snapshot -> JSONL + Prometheus
  if (!opts.trace_path.empty()) {
    if (write_text_file(opts.trace_path,
                        obs::Tracer::instance().export_chrome_json())) {
      std::printf("trace: %s (open at https://ui.perfetto.dev)\n",
                  opts.trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to '%s'\n",
                   opts.trace_path.c_str());
      ok = false;
    }
  }
  if (!opts.events_path.empty()) {
    const obs::Json log = obs::events().to_json(obs::events().capacity());
    if (write_text_file(opts.events_path, log.dump(1) + "\n")) {
      std::printf("events: %s (%llu recorded)\n", opts.events_path.c_str(),
                  static_cast<unsigned long long>(obs::events().total()));
    } else {
      std::fprintf(stderr, "cannot write events to '%s'\n",
                   opts.events_path.c_str());
      ok = false;
    }
  }
  if (!opts.metrics_out.empty() && exporter) {
    std::printf("metrics: %s (%llu JSONL snapshot(s))\n",
                opts.metrics_out.c_str(),
                static_cast<unsigned long long>(exporter->snapshots_taken()));
  }
  if (!opts.prom_path.empty()) {
    std::printf("prometheus: %s\n", opts.prom_path.c_str());
  }
  if (!opts.flight_dir.empty()) {
    const obs::FlightRecorder& fr = obs::FlightRecorder::instance();
    std::printf("flight: %llu record(s) in %s (%llu suppressed)\n",
                static_cast<unsigned long long>(fr.records_written()),
                opts.flight_dir.c_str(),
                static_cast<unsigned long long>(fr.records_suppressed()));
  }
  return ok;
}

// ---- open-loop overload mode ----

struct Outcome {
  std::future<serve::RequestResult> future;
  int cls = 0;  // 0 = tight deadline, 1 = loose deadline
  u64 submit_ns = 0;
  u64 ready_ns = 0;
  serve::RequestResult result;
};

i64 percentile_us(std::vector<i64>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

int run_overload(const Graph& model, const Options& opts) {
  serve::ServeOptions sopts = opts.serve;
  if (!opts.queue_depth_set) sopts.max_queue_depth = 4 * sopts.max_batch;

  WeightStore weights(opts.seed);

  // Capacity estimate: batched throughput, not solo latency — coalescing
  // amortizes planning and stacks rows, so the server's real capacity is
  // what a full batch sustains. One warmup wave pays plan construction;
  // the second wave's wall time / request count is the steady per-request
  // service time at capacity.
  i64 service_us = 0;
  {
    serve::Server probe(model, weights, sopts);
    const int wave = 2 * sopts.max_batch;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::future<serve::RequestResult>> waves;
      waves.reserve(static_cast<size_t>(wave));
      const u64 t0 = now_ns();
      for (int i = 0; i < wave; ++i) {
        waves.push_back(probe.submit(make_request(
            model, 1,
            opts.seed + 1000 + static_cast<u64>(pass * wave + i))));
      }
      for (auto& f : waves) {
        auto r = f.get();
        if (!r.status.ok()) {
          std::fprintf(stderr, "capacity probe failed: %s\n",
                       r.status.to_string().c_str());
          return 1;
        }
      }
      if (pass == 1) {
        service_us = static_cast<i64>((now_ns() - t0) / 1000) / wave;
      }
    }
    probe.shutdown();
    service_us = std::max<i64>(1, service_us);
  }

  const i64 tight_us = 3 * service_us;
  const i64 loose_us = opts.serve.default_deadline_us > 0
                           ? opts.serve.default_deadline_us
                           : 30 * service_us;
  const int burst = std::max(1, static_cast<int>(opts.overload + 0.5));
  const i64 bursts = std::max<i64>(1, opts.duration_ms * 1000 / service_us);
  std::printf(
      "overload: service ~%lld us/request, %.1fx capacity -> burst of %d "
      "every %lld us for %lld bursts\n"
      "deadlines: tight %lld us, loose %lld us; queue depth cap %lld\n",
      static_cast<long long>(service_us), opts.overload, burst,
      static_cast<long long>(service_us), static_cast<long long>(bursts),
      static_cast<long long>(tight_us), static_cast<long long>(loose_us),
      static_cast<long long>(sopts.max_queue_depth));

  obs::metrics().reset();
  serve::Server server(model, weights, sopts);

  const size_t total = static_cast<size_t>(bursts) * static_cast<size_t>(burst);
  std::vector<Outcome> outcomes(total);
  std::atomic<size_t> submitted{0};

  // The collector runs concurrently with submission so ready_ns reflects
  // when each future actually resolved, not when the run ended. Requests
  // resolve near-FIFO (batches execute in queue order; sheds resolve
  // immediately), so waiting in submission order keeps the timestamps
  // honest.
  std::thread collector([&] {
    for (size_t i = 0; i < total; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      outcomes[i].result = outcomes[i].future.get();
      outcomes[i].ready_ns = now_ns();
    }
  });

  i64 max_depth_seen = 0;
  const auto start = std::chrono::steady_clock::now();
  u64 next_seed = opts.seed + 5000;
  for (i64 b = 0; b < bursts; ++b) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(b * service_us));
    for (int i = 0; i < burst; ++i) {
      const size_t idx = submitted.load(std::memory_order_relaxed);
      Outcome& o = outcomes[idx];
      o.cls = static_cast<int>(idx % 2);
      o.submit_ns = now_ns();
      o.future = server.submit(make_request(model, 1, next_seed++),
                               o.cls == 0 ? tight_us : loose_us);
      submitted.store(idx + 1, std::memory_order_release);
    }
    max_depth_seen = std::max(max_depth_seen, server.queue_depth());
  }
  server.shutdown(/*drain_deadline_us=*/opts.drain_ms * 1000);
  collector.join();

  // Per-class accounting.
  const char* cls_name[2] = {"tight", "loose"};
  const i64 cls_deadline[2] = {tight_us, loose_us};
  struct ClassStats {
    i64 submitted = 0, served = 0, shed = 0, failed = 0, slo_met = 0;
    i64 p50 = 0, p95 = 0, p99 = 0;
    double slo_pct = 0.0;
  };
  ClassStats stats[2];
  int failed = 0;
  TextTable table({"class", "submitted", "served", "shed", "failed",
                   "SLO met", "p50", "p95", "p99 (us)"});
  for (int cls = 0; cls < 2; ++cls) {
    ClassStats& s = stats[cls];
    std::vector<i64> latency_us;
    for (const Outcome& o : outcomes) {
      if (o.cls != cls) continue;
      ++s.submitted;
      const i64 us = static_cast<i64>((o.ready_ns - o.submit_ns) / 1000);
      if (o.result.status.ok()) {
        ++s.served;
        latency_us.push_back(us);
        if (us <= cls_deadline[cls]) ++s.slo_met;
      } else if (o.result.shed) {
        ++s.shed;
      } else {
        ++s.failed;
        ++failed;
        std::fprintf(stderr, "request (class %s) failed: %s\n",
                     cls_name[cls], o.result.status.to_string().c_str());
      }
    }
    std::sort(latency_us.begin(), latency_us.end());
    s.p50 = percentile_us(latency_us, 0.50);
    s.p95 = percentile_us(latency_us, 0.95);
    s.p99 = percentile_us(latency_us, 0.99);
    s.slo_pct = s.submitted > 0 ? 100.0 * static_cast<double>(s.slo_met) /
                                      static_cast<double>(s.submitted)
                                : 0.0;
    table.add_row({cls_name[cls], std::to_string(s.submitted),
                   std::to_string(s.served), std::to_string(s.shed),
                   std::to_string(s.failed),
                   TextTable::num(s.slo_pct) + "%",
                   std::to_string(s.p50), std::to_string(s.p95),
                   std::to_string(s.p99)});
  }
  std::printf("\n%s", table.render().c_str());

  TextTable summary({"metric", "value"});
  summary.add_row({"requests", std::to_string(outcomes.size())});
  summary.add_row({"completed", std::to_string(counter_value("serve.completed"))});
  summary.add_row({"failed", std::to_string(counter_value("serve.failed"))});
  summary.add_row({"rejected", std::to_string(counter_value("serve.rejected"))});
  add_shed_rows(summary);
  summary.add_row({"max queue depth seen",
                   std::to_string(max_depth_seen) + " (cap " +
                       std::to_string(sopts.max_queue_depth) + ")"});
  summary.add_row({"request latency (all)",
                   pctl(obs::metrics().histogram("serve.request_us"))});
  summary.add_row({"events logged", std::to_string(obs::events().total())});
  {
    const obs::FlightRecorder& fr = obs::FlightRecorder::instance();
    summary.add_row(
        {"flight records",
         fr.enabled() ? std::to_string(fr.records_written()) + " (" +
                            std::to_string(fr.records_suppressed()) +
                            " suppressed)"
                      : std::string("off (--flight-dir)")});
  }
  std::printf("\n%s", summary.render().c_str());

  if (!opts.json_path.empty()) {
    obs::Json doc = obs::Json::object();
    doc.set("schema", "brickdl-serve-bench-v1");
    doc.set("service_us", service_us);
    doc.set("overload", opts.overload);
    doc.set("burst", burst);
    doc.set("bursts", bursts);
    doc.set("max_queue_depth", sopts.max_queue_depth);
    doc.set("max_depth_seen", max_depth_seen);
    obs::Json classes = obs::Json::object();
    for (int cls = 0; cls < 2; ++cls) {
      const ClassStats& s = stats[cls];
      obs::Json c = obs::Json::object();
      c.set("deadline_us", cls_deadline[cls]);
      c.set("submitted", s.submitted);
      c.set("served", s.served);
      c.set("shed", s.shed);
      c.set("failed", s.failed);
      c.set("slo_pct", s.slo_pct);
      c.set("p50_us", s.p50);
      c.set("p95_us", s.p95);
      c.set("p99_us", s.p99);
      classes.set(cls_name[cls], std::move(c));
    }
    doc.set("classes", std::move(classes));
    const obs::Histogram& lat = obs::metrics().histogram("serve.request_us");
    obs::Json all = obs::Json::object();
    all.set("count", static_cast<i64>(lat.count()));
    all.set("p50_us", lat.percentile(0.50));
    all.set("p95_us", lat.percentile(0.95));
    all.set("p99_us", lat.percentile(0.99));
    doc.set("request_us", std::move(all));
    if (!write_text_file(opts.json_path, doc.dump(1) + "\n")) {
      std::fprintf(stderr, "cannot write stats to '%s'\n",
                   opts.json_path.c_str());
      return 1;
    }
    std::printf("stats: %s (brickdl-serve-bench-v1)\n",
                opts.json_path.c_str());
  }

  if (sopts.max_queue_depth > 0 && max_depth_seen > sopts.max_queue_depth) {
    std::fprintf(stderr,
                 "FAIL: observed queue depth %lld exceeds max_queue_depth "
                 "%lld\n",
                 static_cast<long long>(max_depth_seen),
                 static_cast<long long>(sopts.max_queue_depth));
    return 1;
  }
  if (failed > 0) {
    std::fprintf(stderr, "FAIL: %d request(s) failed with non-shed status\n",
                 failed);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool missing_value = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Empty string (never nullptr) when the value is missing, so the numeric
    // parses below stay crash-free; the flag loop then falls out to usage().
    auto next = [&]() -> const char* {
      if (i + 1 < argc) return argv[++i];
      missing_value = true;
      return "";
    };
    if (arg == "--demo") {
      opts.demo = std::atoi(next());
    } else if (arg == "--overload") {
      opts.overload = std::atof(next());
    } else if (arg == "--duration-ms") {
      opts.duration_ms = std::atol(next());
    } else if (arg == "--drain-ms") {
      opts.drain_ms = std::atol(next());
    } else if (arg == "--layers") {
      opts.layers = std::atoi(next());
    } else if (arg == "--spatial") {
      opts.spatial = std::atol(next());
    } else if (arg == "--channels") {
      opts.channels = std::atol(next());
    } else if (arg == "--max-batch") {
      opts.serve.max_batch = std::atoi(next());
    } else if (arg == "--max-wait-us") {
      opts.serve.max_wait_us = std::atol(next());
    } else if (arg == "--max-rows") {
      opts.serve.max_batch_rows = std::atol(next());
    } else if (arg == "--budget") {
      opts.serve.footprint_budget = std::atol(next());
    } else if (arg == "--queue-depth") {
      opts.serve.max_queue_depth = std::atol(next());
      opts.queue_depth_set = true;
    } else if (arg == "--deadline-us") {
      opts.serve.default_deadline_us = std::atol(next());
    } else if (arg == "--breaker-k") {
      opts.serve.breaker_failures = std::atoi(next());
    } else if (arg == "--breaker-cooldown") {
      opts.serve.breaker_cooldown = std::atoi(next());
    } else if (arg == "--workers") {
      opts.serve.backend_workers = std::atoi(next());
    } else if (arg == "--seed") {
      opts.seed = static_cast<u64>(std::atoll(next()));
    } else if (arg == "--fast") {
      opts.fast = true;
    } else if (arg == "--strategy") {
      const char* s = next();
      if (std::strcmp(s, "padded") == 0) {
        opts.serve.engine.force_strategy = Strategy::kPadded;
      } else if (std::strcmp(s, "memoized") == 0) {
        opts.serve.engine.force_strategy = Strategy::kMemoized;
      } else {
        return usage();
      }
    } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      opts.trace_path =
          arg.size() > 8 ? arg.substr(8) : std::string("serve_trace.json");
    } else if (arg == "--events" || arg.rfind("--events=", 0) == 0) {
      opts.events_path =
          arg.size() > 9 ? arg.substr(9) : std::string("serve_events.json");
    } else if (arg == "--metrics-out") {
      opts.metrics_out = next();
    } else if (arg == "--prom") {
      opts.prom_path = next();
    } else if (arg == "--flight-dir") {
      opts.flight_dir = next();
    } else if (arg == "--json") {
      opts.json_path = next();
    } else if (arg == "--calibration") {
      const std::string path = next();
      if (missing_value) return usage();
      std::ifstream in(path);
      std::ostringstream text;
      text << in.rdbuf();
      if (!in) {
        std::fprintf(stderr, "cannot read calibration file '%s'\n",
                     path.c_str());
        return 1;
      }
      Status st;
      Result<obs::Json> doc = obs::Json::parse(text.str());
      if (!doc.ok()) {
        st = doc.status();
      } else {
        Result<obs::CalibratedConstants> cal =
            obs::calibration_from_json(doc.value());
        if (cal.ok()) {
          opts.serve.engine.partition.calibration = cal.value();
        } else {
          st = cal.status();
        }
      }
      if (!st.ok()) {
        std::fprintf(stderr, "invalid calibration '%s': %s\n", path.c_str(),
                     st.to_string().c_str());
        return 1;
      }
    } else if (!arg.empty() && arg[0] != '-' && opts.trace_file.empty()) {
      opts.trace_file = arg;
    } else {
      return usage();
    }
  }
  if (missing_value) return usage();
  if (opts.trace_file.empty() && opts.demo <= 0 && opts.overload <= 0.0) {
    return usage();
  }

  const Graph model = build_conv_chain_2d(opts.layers, /*batch=*/1,
                                          opts.spatial, opts.channels);

  if (!opts.trace_path.empty()) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  if (!opts.flight_dir.empty()) {
    obs::FlightRecorder::Options fopts;
    fopts.dir = opts.flight_dir;
    obs::FlightRecorder::instance().configure(fopts);
  }
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!opts.metrics_out.empty() || !opts.prom_path.empty()) {
    obs::MetricsExporter::Options eopts;
    eopts.interval_ms = 200;
    eopts.jsonl_path = opts.metrics_out;
    eopts.prom_path = opts.prom_path;
    exporter = std::make_unique<obs::MetricsExporter>(std::move(eopts));
    exporter->start();
  }

  if (opts.overload > 0.0) {
    std::printf("%s: %d nodes, input %s, overload mode\n",
                model.name().c_str(), model.num_nodes(),
                model.node(0).out_shape.dims.str().c_str());
    const int rc = run_overload(model, opts);
    if (!finalize_telemetry(opts, exporter.get())) return rc != 0 ? rc : 1;
    return rc;
  }

  std::vector<TraceEntry> trace;
  if (!opts.trace_file.empty()) {
    if (!parse_trace(opts.trace_file, trace)) return 1;
  } else {
    trace = demo_trace(opts.demo, opts.seed);
  }

  std::printf("%s: %d nodes, input %s, %zu request(s)\n",
              model.name().c_str(), model.num_nodes(),
              model.node(0).out_shape.dims.str().c_str(), trace.size());

  obs::metrics().reset();

  WeightStore weights(opts.seed);
  serve::Server server(model, weights, opts.serve);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<serve::RequestResult>> futures;
  futures.reserve(trace.size());
  for (const TraceEntry& entry : trace) {
    if (!opts.fast) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(entry.offset_us));
    }
    futures.push_back(
        server.submit(make_request(model, entry.rows, entry.seed)));
  }

  // In replay mode every request is expected to be served: a shed request
  // (overload/deadline policies armed via the knobs) is still a failed
  // replay, but is reported under its own count.
  int failed = 0;
  int shed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::RequestResult result = futures[i].get();
    if (!result.status.ok()) {
      ++failed;
      if (result.shed) ++shed;
      std::fprintf(stderr, "request %zu %s: %s\n", i,
                   result.shed ? "shed" : "failed",
                   result.status.to_string().c_str());
    }
  }
  server.shutdown();

  obs::MetricsRegistry& m = obs::metrics();
  TextTable table({"metric", "value"});
  table.add_row({"requests", std::to_string(trace.size())});
  table.add_row({"completed", std::to_string(m.counter("serve.completed").value())});
  table.add_row({"failed", std::to_string(m.counter("serve.failed").value())});
  table.add_row({"rejected", std::to_string(m.counter("serve.rejected").value())});
  add_shed_rows(table);
  table.add_row({"flushes", std::to_string(m.counter("serve.flushes").value())});
  table.add_row({"batches", std::to_string(m.counter("serve.batches").value())});
  table.add_row({"splits", std::to_string(m.counter("serve.splits").value())});
  table.add_row(
      {"plan cache hit/miss",
       std::to_string(m.counter("serve.plan_cache_hits").value()) + "/" +
           std::to_string(m.counter("serve.plan_cache_misses").value())});
  const obs::Histogram& occupancy = m.histogram("serve.batch_occupancy");
  table.add_row({"batch occupancy",
                 "mean " + TextTable::num(occupancy.mean()) + ", max " +
                     std::to_string(occupancy.max())});
  const obs::Histogram& rows = m.histogram("serve.batch_rows");
  table.add_row({"stacked rows", "mean " + TextTable::num(rows.mean()) +
                                     ", max " + std::to_string(rows.max())});
  table.add_row({"coalesce latency", pctl(m.histogram("serve.coalesce_us"))});
  table.add_row({"run latency", pctl(m.histogram("serve.run_us"))});
  table.add_row({"request latency", pctl(m.histogram("serve.request_us"))});
  std::printf("\n%s", table.render().c_str());

  if (!finalize_telemetry(opts, exporter.get())) return 1;
  if (shed > 0) {
    std::fprintf(stderr, "%d replayed request(s) shed (see summary)\n", shed);
  }
  return failed == 0 ? 0 : 1;
}
