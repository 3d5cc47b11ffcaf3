#!/usr/bin/env python3
"""Build and run one workload of the ppSCAN benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cluster-community [--seed 1]
                             [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --self-test

The C++ driver (perfbench/driver) is built from this directory's
CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build). It runs the
workload in one process, checks every answer, and prints every metric it
measured with its unit and sample count. This script then prints, as the
last line of standard output, one JSON object holding the metrics
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer
list with --trace 1.

Exit status: 0 when every answer was correct; 1 when any was wrong (the
result line is still printed, with "correct": false); other codes, with
no result line, when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env(out_dir):
    """Environment for the build and the driver: temporary files stay
    inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(target, out_dir, env):
    cmake_dir = os.path.join(out_dir, "cmake")
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "--target", target,
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    return os.path.join(cmake_dir, target)


def source_digest():
    """sha256 over the library and benchmark sources, path by path."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (default 1); a claim must also hold "
                         "on a second seed")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured seconds per loop (default 15, the "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the statistics unit tests")
    args = ap.parse_args()

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(out_dir)

    if args.self_test:
        test = build("perfbench_stats_test", out_dir, env)
        return 3 if test is None else subprocess.run([test], env=env).returncode

    if not args.workload:
        ap.error("--workload is required")
    try:
        wanted = contract_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 3
    driver = build("perfbench_driver", out_dir, env)
    if driver is None:
        return 3

    results = os.path.join(
        out_dir, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(results):
        os.remove(results)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out_dir, "work"), "--out", results,
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s and was stopped")
        return 4
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(results):
        log(f"driver failed with exit code {proc.returncode}")
        return 4

    with open(results) as f:
        report = json.load(f)
    measured = report["metrics"]
    metrics = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log(f"driver did not report {spec['name']} in {spec['unit']}")
            return 4
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    fp = report["fingerprint"]
    steal = measured.get("host.steal_ratio", {}).get("value", 0.0)
    print(f"# host nproc={fp['nproc']} cpu='{fp['cpu_model']}' "
          f"kernel='{fp['kernel']}' avx2={fp['avx2']} avx512={fp['avx512']} "
          f"steal={steal:.3f}")
    print(f"# build {fp['build_type']} compiler='{fp['compiler']}' "
          f"trace_hooks={fp['ppscan_trace']} faults={fp['ppscan_faults']} "
          f"commit={fp['commit']} sources={fp['source_digest']} "
          f"seed={fp['seed']}")
    print(f"# results -> {os.path.relpath(results, ROOT)}")
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
