#!/usr/bin/env bash
# Calibration smoke test (DESIGN.md §15): the fit → validate → apply loop
# across processes.
#
#   process 1: runs the model, emits a run report, fits and writes a
#              brickdl-calibration-v1 document;
#   checker:   brickdl_report_check validates the report and the calibration;
#   process 2: plans and runs under --calibration; its report must validate.
#
# Registered as the `calibration_smoke` CTest (label: obs). An optional
# artifact directory keeps the calibration JSON and reports for debugging:
#
#   bench/smoke_calibration.sh [build-dir] [artifact-dir]
set -euo pipefail

build_dir="${1:-build}"
cli="$build_dir/tools/brickdl_cli"
check="$build_dir/tools/brickdl_report_check"
for bin in "$cli" "$check"; do
  if [[ ! -x "$bin" ]]; then
    echo "smoke_calibration: missing binary $bin (build the tree first)" >&2
    exit 1
  fi
done

if [[ $# -ge 2 ]]; then
  tmp="$2"
  mkdir -p "$tmp"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi

model_args=(drn26 --batch 1 --spatial 64)

echo "== process 1: run, write report, fit calibration =="
"$cli" "${model_args[@]}" \
  --report="$tmp/report.json" --calibrate-out "$tmp/calibration.json"

echo "== validate artifacts (report + calibration schemas) =="
"$check" --report "$tmp/report.json" --calibration "$tmp/calibration.json"

echo "== process 2: plan and run under the fitted calibration =="
"$cli" "${model_args[@]}" --calibration "$tmp/calibration.json" \
  --report="$tmp/report_calibrated.json"
"$check" --report "$tmp/report_calibrated.json"

echo "smoke_calibration: ok"
