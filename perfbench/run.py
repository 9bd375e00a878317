#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick

The first form builds the library and the perfbench binary from source
(CMake, Release, into .bench_build/perfbench) and runs one workload; the
binary's last stdout line is the JSON result. A traced run also writes
its spans as Chrome trace-event JSON to .bench_build/traces/<workload>.json.

--quick is the benchmark's own test: every workload of BENCHMARK.json,
untraced and traced, with a one-second run, checking that the result line
has exactly the expected keys and every named metric with its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "spindle" / "spindle.h").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return BINARY.is_file()


def commit_id():
    """The git commit when the checkout is a git work tree, else 'unknown'."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, commit, capture=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACES / f"{workload}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return None


def check_result(line, specs):
    """Problems with one result line against the BENCHMARK.json specs."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"result line is not JSON: {e}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append("run reported failures")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = res.get("metrics", {})
    want = {s["name"]: s["unit"] for s in specs}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    return problems


def quick():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = commit_id()
    failures = 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            name = wl["name"]
            proc = run_binary(name, 1, 1, trace, commit, capture=True)
            lines = proc.stdout.strip().splitlines() if proc else []
            problems = [] if proc and proc.returncode == 0 else ["non-zero exit"]
            problems += check_result(lines[-1] if lines else "",
                                     spec["per_layer" if trace else "end_to_end"])
            if trace:
                try:
                    events = json.loads((TRACES / f"{name}.json").read_text())
                    if not any(e.get("ph") == "X" for e in events["traceEvents"]):
                        problems.append("trace has no spans")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"trace file: {e}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{name:24s} trace={trace}  {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run every workload briefly and check the result schema")
    args = ap.parse_args()
    if not args.quick and not args.workload:
        ap.error("--workload is required (or --quick)")
    if not build():
        return 2
    if args.quick:
        return quick()
    proc = run_binary(args.workload, args.seed, args.seconds, args.trace,
                      commit_id())
    return 2 if proc is None else proc.returncode


if __name__ == "__main__":
    sys.exit(main())
