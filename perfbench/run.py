#!/usr/bin/env python3
"""Benchmark runner for the dnnlife campaign engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline; honours CARGO_TARGET_DIR), then:

* --trace 0: runs the workload's campaign again and again, each time in a
  fresh `perfbench run` process, until --seconds have passed (at least
  MIN_REPS times). Every run's store is checked, and per-record digests
  must match across runs of the seed. Prints the end-to-end metrics as
  medians over the runs.
* --trace 1: one untraced `perfbench run`, then `perfbench trace` in a
  fresh process on the same seed, which re-runs every scenario serially
  and times each layer. Prints the per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits nonzero without that line if the benchmark cannot be built.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every child process must finish within this many seconds of the build.
DEADLINE_S = 170.0
# Fewest measured campaign runs per benchmark run, so digests can be compared.
MIN_REPS = 2


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Builds perfbench; returns the binary's path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        log("cannot run cargo:", e)
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def child(binary, args, deadline):
    """Runs one perfbench process; returns (its JSON result or None, spawn time in unix ns)."""
    env = dict(os.environ)
    # The procedural MNIST source keeps inputs a function of the seed alone.
    env.pop("DNNLIFE_MNIST_DIR", None)
    spawn_ns = time.time_ns()
    try:
        done = subprocess.run(
            [binary] + args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        log(args[0], "timed out")
        return None, spawn_ns
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(args[0], "exited with", done.returncode)
        return None, spawn_ns
    try:
        return json.loads(lines[-1]), spawn_ns
    except ValueError:
        log(args[0], "printed no JSON result")
        return None, spawn_ns


def measure(binary, common, store, seconds, deadline):
    """--trace 0: repeated fresh-process campaign runs; returns (metrics, attempted, failed)."""
    reps, attempted, failed = [], 0, 0
    reference = None
    started = time.monotonic()
    while True:
        rep_started = time.monotonic()
        out, spawn_ns = child(binary, ["run"] + common + ["--store", store], deadline)
        last = time.monotonic() - rep_started
        if out is None:
            # A crashed run fails every scenario it attempted.
            size = max((r["attempted"] for r in reps), default=1)
            attempted, failed = attempted + size, failed + size
        else:
            attempted += out["attempted"]
            failed += out["failed"]
            for reason in out["failures"]:
                log("check failed:", reason)
            if reference is None:
                reference = out["digests"]
            else:
                drift = [k for k in reference if out["digests"].get(k, reference[k]) != reference[k]]
                for key in drift:
                    log("digest differs from the first run's:", key)
                failed += len(drift)
            out["setup_s"] = (out["call_unix_ns"] - spawn_ns) / 1e9
            reps.append(out)
        if os.path.exists(store):
            os.remove(store)
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed + last > seconds:
            break
        if time.monotonic() + last > deadline or (out is None and len(reps) == 0):
            break
    if not reps:
        return {}, attempted, failed
    metrics = {
        name: statistics.median(r[name] for r in reps)
        for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["pass_rate"] = (attempted - failed) / attempted
    log(f"{len(reps)} runs: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
    return metrics, attempted, failed


def traced(binary, common, store, deadline):
    """--trace 1: one untraced run, then the traced decomposition; returns (metrics, attempted, failed)."""
    out, _ = child(binary, ["run"] + common + ["--store", store], deadline)
    if out is None:
        return {}, 1, 1
    for reason in out["failures"]:
        log("check failed:", reason)
    args = common + ["--store", store, "--wall-s", repr(out["wall_s"]), "--cpu-s", repr(out["cpu_s"])]
    tr, _ = child(binary, ["trace"] + args, deadline)
    if tr is None:
        return {}, out["attempted"], out["attempted"]
    for reason in tr["failures"]:
        log("trace failed:", reason)
    failed = min(out["attempted"], out["failed"] + tr["failed"])
    return tr["metrics"], out["attempted"], failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    if binary is None:
        return 1
    deadline = time.monotonic() + DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    store = os.path.join(work, "store.jsonl")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--threads", str(threads)]
    try:
        if args.trace:
            metrics, attempted, failed = traced(binary, common, store, deadline)
        else:
            metrics, attempted, failed = measure(binary, common, store, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still works there

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("metrics not measured:", ", ".join(missing))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
