// brickdl_report_check — schema-validate observability artifacts.
//
//   brickdl_report_check [--report r.json] [--trace t.json]
//                        [--flight f.json] [--calibration c.json]
//
// Parses the files back through the same obs::Json implementation that wrote
// them and runs the structural validators (obs::validate_run_report,
// obs::validate_chrome_trace, obs::validate_flight_record,
// obs::validate_calibration). Unknown schema versions are a named failure
// (kUnknownSchema), not a structural one. Exit 0 only when every given
// artifact is well-formed; bench/smoke_report.sh and the `obs_smoke` CTest
// drive this against fresh brickdl_cli output,
// bench/smoke_serve_telemetry.sh against brickdl_serve output, and
// bench/smoke_calibration.sh against the calibration emitted by
// `brickdl_cli --calibrate-out`.
#include <cstdio>
#include <string>

#include "obs/calibrate.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

using namespace brickdl;

namespace {

int fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "brickdl_report_check: %s: %s\n", what.c_str(),
               status.to_string().c_str());
  return 1;
}

Result<obs::Json> read_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return Status(StatusCode::kInvalidGraph, "cannot open '" + path + "'");
  }
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return obs::Json::parse(text);
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  std::string trace_path;
  std::string flight_path;
  std::string calibration_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--report") {
      const char* v = next();
      if (!v) break;
      report_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) break;
      trace_path = v;
    } else if (arg == "--flight") {
      const char* v = next();
      if (!v) break;
      flight_path = v;
    } else if (arg == "--calibration") {
      const char* v = next();
      if (!v) break;
      calibration_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: brickdl_report_check [--report r.json] "
                   "[--trace t.json] [--flight f.json] "
                   "[--calibration c.json]\n");
      return 2;
    }
  }
  if (report_path.empty() && trace_path.empty() && flight_path.empty() &&
      calibration_path.empty()) {
    std::fprintf(stderr, "brickdl_report_check: nothing to check\n");
    return 2;
  }

  if (!report_path.empty()) {
    Result<obs::Json> doc = read_json(report_path);
    if (!doc.ok()) return fail(report_path, doc.status());
    const Status status = obs::validate_run_report(doc.value());
    if (!status.ok()) return fail(report_path, status);
    std::printf("ok: %s (%zu subgraphs)\n", report_path.c_str(),
                doc.value().find("subgraphs")->size());
  }
  if (!trace_path.empty()) {
    Result<obs::Json> doc = read_json(trace_path);
    if (!doc.ok()) return fail(trace_path, doc.status());
    const Status status = obs::validate_chrome_trace(doc.value());
    if (!status.ok()) return fail(trace_path, status);
    std::printf("ok: %s (%zu events)\n", trace_path.c_str(),
                doc.value().find("traceEvents")->size());
  }
  if (!flight_path.empty()) {
    Result<obs::Json> doc = read_json(flight_path);
    if (!doc.ok()) return fail(flight_path, doc.status());
    const Status status = obs::validate_flight_record(doc.value());
    if (!status.ok()) return fail(flight_path, status);
    std::printf("ok: %s (trigger %s, %zu events)\n", flight_path.c_str(),
                doc.value().find("trigger")->str().c_str(),
                doc.value().find("events")->size());
  }
  if (!calibration_path.empty()) {
    Result<obs::Json> doc = read_json(calibration_path);
    if (!doc.ok()) return fail(calibration_path, doc.status());
    const Status status = obs::validate_calibration(doc.value());
    if (!status.ok()) return fail(calibration_path, status);
    const obs::Json* residuals = doc.value().find("residuals");
    std::printf("ok: %s (%lld samples, rel error %.4g -> %.4g)\n",
                calibration_path.c_str(),
                static_cast<long long>(doc.value().find("samples")->number()),
                residuals->find("stock_mean_rel_error")->number(),
                residuals->find("calibrated_mean_rel_error")->number());
  }
  return 0;
}
