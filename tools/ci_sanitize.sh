#!/usr/bin/env bash
# Sanitizer matrix for the concurrency-sensitive and fuzzed code paths.
#
#   1. ThreadSanitizer:   memoized executor (run_parallel CAS protocol),
#                         thread pool, the worker team (WorkerTeam: the
#                         lock-free region handoff, spin-then-park, nested
#                         and overlapping regions), vendor tiles on the
#                         run-scoped team (EnginePool), the resilience
#                         suite (stall watchdog, tag repair, fault
#                         injection),
#                         the observability suite (concurrent metrics,
#                         trace ring buffers, mid-run stats snapshots), the
#                         serving suite (submitter threads racing the batch
#                         scheduler), the pipelining suite (chained tag
#                         tables shared by real worker threads, the serving
#                         runner-pool/scheduler handoff), the
#                         partitioner property suite (shared metrics
#                         registry traffic), and the
#                         simulator suite (the A100 L2 on set-sharded
#                         threads: probe rings, drain points, shutdown),
#                         and the activation-lifetime tests (storage
#                         released and recycled between pooled subgraphs).
#   2. ASan + UBSan:      the differential fuzz suite (random graphs through
#                         every executor variant), the window-copy property
#                         tests, the activation-lifetime tests (released
#                         storage is poisoned, so reading a dead activation
#                         trips ASan),
#                         plus the resilience, observability, serving,
#                         partition and simulator suites
#                         (includes the malformed-parse corpus and JSON
#                         parse-back).
#   3. Release (-O3 -DNDEBUG): the differential + perf (fast-path vs generic
#                         kernel) + obs (unit suite plus the CLI and
#                         serving-telemetry end-to-end smokes, which validate
#                         every exported artifact) labels at the optimization
#                         level the fast paths ship at — vectorized interior
#                         loops can behave differently from -O0/-O1
#                         sanitizer builds.
#
# Usage: tools/ci_sanitize.sh [source-dir]
# Build trees land in <source-dir>/build-tsan, <source-dir>/build-asan and
# <source-dir>/build-release.
# STAGES selects a subset (space-separated: tsan asan release; default all) —
# this is how .github/workflows/ci.yml runs each stage as its own job.
# Also registered as CTest test `sanitize_suite` (label `sanitize`) when the
# tree is configured with -DBRICKDL_SANITIZE_CI=ON.
set -euo pipefail

SRC_DIR=$(cd "${1:-$(dirname "$0")/..}" && pwd)
JOBS=${JOBS:-$(nproc)}
STAGES=${STAGES:-"tsan asan release"}

run_stage() { [[ " $STAGES " == *" $1 "* ]]; }

if run_stage tsan; then
  echo "== [tsan] ThreadSanitizer: memoized / thread-pool / worker-team / engine-pool / resilience / obs / serve / pipeline / partition / sim / activation-lifetime =="
  cmake -B "$SRC_DIR/build-tsan" -S "$SRC_DIR" -DBRICKDL_SANITIZE=thread
  cmake --build "$SRC_DIR/build-tsan" -j "$JOBS" \
        --target brickdl_tests --target brickdl_resilience_tests \
        --target brickdl_obs_tests --target brickdl_serve_tests \
        --target brickdl_pipeline_tests --target brickdl_partition_tests \
        --target brickdl_sim_tests
  ctest --test-dir "$SRC_DIR/build-tsan" --output-on-failure --timeout 600 \
        -R 'MemoizedExecutor|ThreadPool|WorkerTeam|EnginePool|Resilience|Obs|Serve|Pipeline|PartitionerProperties|MemSimShards|SimGolden|ActivationLifetime'
fi

if run_stage asan; then
  echo "== [asan] ASan+UBSan: differential fuzz + resilience + obs + serve + pipeline + partition + sim + activation-lifetime suites =="
  cmake -B "$SRC_DIR/build-asan" -S "$SRC_DIR" -DBRICKDL_SANITIZE=address,undefined
  cmake --build "$SRC_DIR/build-asan" -j "$JOBS" \
        --target brickdl_tests \
        --target brickdl_differential_tests --target brickdl_resilience_tests \
        --target brickdl_obs_tests --target brickdl_serve_tests \
        --target brickdl_pipeline_tests --target brickdl_partition_tests \
        --target brickdl_sim_tests \
        --target mb_kernels \
        --target brickdl_serve --target brickdl_report_check
  # obs_smoke and calibration_smoke (the CLI end-to-end runs) are excluded:
  # they need the CLI binaries and are far too slow under ASan; the unit
  # suites cover the same code paths. perf = the fast-path-vs-generic kernel
  # sweeps + mb_kernels smoke: cheap, and exactly where an interior-loop
  # indexing bug would surface. partition adds the partitioner property
  # sweep; sim adds the golden counters and the sharded-L2 differential
  # test.
  ctest --test-dir "$SRC_DIR/build-asan" --output-on-failure --timeout 600 \
        -L 'differential|resilience|obs|perf|serve|pipeline|partition|sim' \
        -E 'obs_smoke|calibration_smoke'
  # From the main suite: the window-copy property tests (the row-wise gather
  # and scatter copies clip and zero-fill against tensor and brick bounds),
  # the activation-lifetime tests (runs over poisoned recycled storage, and
  # the segment runner discarding a failed chain's outputs) and the engine
  # report tests (per-segment counter deltas).
  ctest --test-dir "$SRC_DIR/build-asan" --output-on-failure --timeout 600 \
        -R '^(WindowCopy|ActivationLifetime|EngineReports)\.'
fi

if run_stage release; then
  echo "== [release] Release -O3 -DNDEBUG: differential + perf + obs labels (incl. telemetry smokes) =="
  cmake -B "$SRC_DIR/build-release" -S "$SRC_DIR" \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS_RELEASE="-O3 -DNDEBUG"
  cmake --build "$SRC_DIR/build-release" -j "$JOBS" \
        --target brickdl_differential_tests --target mb_kernels \
        --target brickdl_serve \
        --target brickdl_obs_tests --target brickdl_cli \
        --target brickdl_report_check
  # perf includes serve_overload_smoke: the open-loop overload run (bounded
  # queue, shed taxonomy, drain) at the optimization level serving ships at.
  # obs adds the unit suite plus obs_smoke, serve_telemetry_smoke, and
  # calibration_smoke — the end-to-end artifact checks (trace flow links,
  # Prometheus/JSONL export, event log, flight records, calibration fit and
  # apply) run at Release speed, where they are cheap.
  ctest --test-dir "$SRC_DIR/build-release" --output-on-failure --timeout 600 \
        -L 'differential|perf|obs'
fi

echo "sanitizer matrix passed (stages: $STAGES)"
