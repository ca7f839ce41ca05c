#!/usr/bin/env python3
"""End-to-end benchmark of BrickDL (see README.md in this directory).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark from
source (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), computes the eager-oracle reference for the seed in
a separate process (cached per seed and binary), runs the measured process,
and prints one JSON line: correct, attempted, failed and the metrics named
in BENCHMARK.json (end-to-end ones with --trace 0, per-layer ones with
--trace 1). Everything else goes to stderr.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet50-host", "fig07-sim")
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout=None):
    """Run a child with its output on stderr; fail on error or timeout."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd)
    run(["cmake", "--build", build_dir, "-j", "4"])
    return os.path.join(build_dir, "perfbench")


def reference(exe, build_dir, workload, seed):
    """Reference JSON for (workload, seed), cached per binary. fig07-sim's
    (the cuDNN baseline) does not depend on the seed."""
    with open(exe, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    cache_dir = os.path.join(build_dir, "reference")
    os.makedirs(cache_dir, exist_ok=True)
    tag = "any" if workload == "fig07-sim" else seed
    path = os.path.join(cache_dir, f"{workload}-{tag}-{key}.json")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        run([exe, "reference", "--workload", workload, "--seed", str(seed),
             "--out", tmp], timeout=CHILD_TIMEOUT_S)
        os.replace(tmp, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no BrickDL sources under {ROOT}")
    with open(spec_path) as f:
        spec = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [exe, "measure", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--out", os.path.join(out_dir, f"{args.workload}-result.json"),
           "--expect", reference(exe, build_dir, args.workload, args.seed)]
    run(cmd, timeout=CHILD_TIMEOUT_S)
    with open(cmd[cmd.index("--out") + 1]) as f:
        result = json.load(f)

    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    # Every end-to-end metric must be measured. A per-layer metric the run
    # did not produce belongs to a layer this workload leaves idle: it reads 0.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = result["metrics"].get(metric["name"])
        if value is None and not args.trace:
            fail(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value or 0, "unit": metric["unit"]}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
