#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload figures|sharded|grid \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the harness (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr.

The harness runs one pass per process. This script starts passes one
after another until S seconds have passed (at least two), checks that
every op's digest is the same in every pass, and prints each metric's
median over the passes. With --trace 1 it alternates untraced and
traced passes: the per-layer ledger comes from the traced ones, and
the tracing overhead is the difference of the two medians. The last
stdout line is {"correct", "attempted", "failed", "metrics"}. Exits 1
when any op failed, and another non-zero code without a result when
the build or a pass process fails.

Seeds: 1 is the default tuning seed; 7 is held out (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # after the build, every run ends well inside 180 s
RUNNER_WORKERS = {"figures": 4, "sharded": 1, "grid": 4}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then build incrementally; True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_sha():
    """Short commit SHA with -dirty, or "unknown" outside a git checkout."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode:
            return "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_pass(cmd, timeout):
    """One harness process: (meta line, pass result) or None on failure."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: pass exceeded %.0f s" % timeout, file=sys.stderr)
        return None
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines or not lines[-1].startswith("{"):
        print("perfbench: pass exited %d without a result" % p.returncode,
              file=sys.stderr)
        return None
    meta = next((l for l in lines if l.startswith("meta ")), "meta {}")
    return meta, json.loads(lines[-1])


def medians(passes):
    """{name: (median value, unit)} over the passes' metrics."""
    out = {}
    for name, m in passes[0]["metrics"].items():
        out[name] = (statistics.median(p["metrics"][name]["value"]
                                       for p in passes), m["unit"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNER_WORKERS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--horizon-ns", type=int, default=0,
                    help="cap every simulation's horizon (self-tests use "
                         "it to make ops fail)")
    args = ap.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        return 2
    started = time.monotonic()
    base = [os.path.join(out, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--out-dir", out, "--git-sha", git_sha()]
    if args.horizon_ns:
        base += ["--horizon-ns", str(args.horizon_ns)]

    # Passes alternate untraced/traced under --trace 1, so slow drift
    # of the host affects both kinds alike.
    untraced, traced = [], []
    t0 = time.monotonic()
    while (len(untraced) + len(traced) < 2 or (args.trace and not traced)
           or time.monotonic() - t0 < args.seconds):
        tracing = args.trace == 1 and len(untraced) > len(traced)
        n = len(untraced) + len(traced) + 1
        res = run_pass(base + ["--trace", "1" if tracing else "0",
                               "--pass", str(n)],
                       RUN_LIMIT_S - (time.monotonic() - started))
        if res is None:
            return 3
        meta, result = res
        if n == 1:
            print(meta)
        print("pass %d %s wall %.6f s" % (n, "traced" if tracing else
                                          "untraced", result["wall"]))
        sys.stdout.flush()
        (traced if tracing else untraced).append(result)

    # Every op must repeat its digest in every pass.
    attempted = failed = 0
    failures = []
    reference = {}
    for p in untraced + traced:
        attempted += p["attempted"]
        failed += p["failed"]
        failures += p["failures"]
        for key, digest in p["digests"].items():
            if reference.setdefault(key, digest) != digest:
                failed += 1
                failures.append(key + ": stats digest differs from an "
                                      "earlier run")
    for f in failures:
        print("perfbench: FAILED " + f, file=sys.stderr)

    if args.trace:
        metrics = medians(traced)
        wall = statistics.median(p["wall"] for p in untraced)
        busy, _ = metrics.pop("system.busy_s")
        metrics["system.runner_util"] = (
            busy / (RUNNER_WORKERS[args.workload] * wall), "ratio")
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - wall, "s")
    else:
        metrics = medians(untraced)

    for name, (value, unit) in metrics.items():
        print("metric %-30s %-24r %s" % (name, value, unit))
    print("ops %d\nops_failed %d" % (attempted, failed))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
