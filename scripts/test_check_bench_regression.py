#!/usr/bin/env python3
"""Fixture test for check_bench_regression.py, the CI perf-gate checker.

Every fixture starts from a checked-in bench/baseline_*.json and a
current run that passes it, applies one change, runs the checker and
asserts its exit status and the set of baseline/current records named
in its failure list. Failures that name no record (a gate that no
baseline record selects, "not wired up") are asserted by their text.

Run: python3 scripts/test_check_bench_regression.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "check_bench_regression.py")
BENCH = os.path.join(HERE, os.pardir, "bench")


def run_checker(artifact, current_path, baseline_path):
    """The invocation adapter: (exit status, stdout, stderr) of the
    check of one artifact."""
    del artifact  # one invocation checks every gate of a file
    proc = subprocess.run(
        [sys.executable, SCRIPT, current_path, baseline_path],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_baseline(artifact):
    with open(os.path.join(BENCH, f"baseline_{artifact}.json")) as f:
        return {rec["name"]: rec for rec in json.load(f)}


def passing_current(artifact, baseline):
    """A current run that meets every gate of `baseline` exactly at
    budget: the baseline's own numbers plus the fields only a run
    reports."""
    current = copy.deepcopy(baseline)
    for rec in current.values():
        if artifact in ("replan", "recovery"):
            rec["full_hits"] = 10
        if artifact == "service":
            rec.update(mismatches=0, full_hit_rate=0.9, hw_threads=8,
                       effective_threads=7.8)
            rec["seconds"] = 0.010 if rec["workers"] == 1 else 0.004
    return current


PLAN64 = "CLIP-10/gpus=64"
PLAN128 = "CLIP-10/gpus=128"
PLAN256 = "CLIP-10/gpus=256"
PLAN1024 = "CLIP-10/gpus=1024"
PLAN2048 = "CLIP-10/gpus=2048"
PLAN4096 = "CLIP-10/gpus=4096"
HETERO2048 = "QWenVAL-70B-hetero/gpus=2048"
STRESS = "QWenVAL-stress/gpus=512"
COLL_FLAT = "Multitask-CLIP/4T/2Nodes(16GPUs)"
COLL_HETERO = "Multitask-CLIP/4T/hetero16(12+4,50G)"
COLL_RAILS = "Multitask-CLIP/10T/hetero64(12+4,50Gx4r)"
REPLAN = "CLIP-storm/gpus=256"
REPLAN_INFO = "CLIP-storm/gpus=1024"
RECOVERY = "flap-storm/gpus=256"
CHAOS = "chaos/gpus=64"
SERIAL = "PlanService/gpus=64/workers=1"
WORKERS8 = "PlanService/gpus=64/workers=8"

WIRED = "not wired up"


def scale(field, factor):
    def edit(recs, name):
        recs[name][field] *= factor
    return edit


def setf(field, value):
    def edit(recs, name):
        recs[name][field] = value
    return edit


def drop(field):
    def edit(recs, name):
        del recs[name][field]
    return edit


def chain(*edits):
    def edit(recs, name):
        for e in edits:
            e(recs, name)
    return edit


def remove(recs, name):
    del recs[name]


def strip_everywhere(field):
    def edit(recs, _name):
        for rec in recs.values():
            rec.pop(field, None)
    return edit


def extra_record(cur, _name):
    cur["CLIP-10/gpus=99"] = {"name": "CLIP-10/gpus=99", "gpus": 99,
                              "plan_seconds": 1.0}


# (artifact, case, record, edit of the current run, edit of the
#  baseline, expected exit status, expected failing records, text the
#  output must contain)
CASES = [
    ("planner", "all pass", None, None, None, 0, set(), None),
    ("planner", "current-only record", None, extra_record, None, 0,
     set(), "not in baseline"),
    ("planner", "64-GPU total over budget", PLAN64,
     scale("plan_seconds", 3), None, 1, {PLAN64}, None),
    ("planner", "gate-flagged total over budget", PLAN1024,
     scale("plan_seconds", 3), None, 1, {PLAN1024}, None),
    ("planner", "informational total over budget", PLAN128,
     scale("plan_seconds", 3), None, 0, set(), None),
    ("planner", "256-GPU phase over budget", PLAN256,
     scale("scheduling_seconds", 3), None, 1, {PLAN256}, None),
    ("planner", "gate-flagged phase over budget", PLAN4096,
     scale("placement_seconds", 3), None, 1, {PLAN4096}, None),
    ("planner", "ungated phase over budget", PLAN2048,
     scale("placement_seconds", 3), None, 0, set(), None),
    ("planner", "phase field missing", PLAN256,
     drop("allocation_seconds"), None, 1, {PLAN256}, None),
    ("planner", "engine over budget", PLAN4096,
     scale("engine_seconds", 3), None, 1, {PLAN4096}, None),
    ("planner", "engine field missing", PLAN4096,
     drop("engine_seconds"), None, 1, {PLAN4096}, None),
    ("planner", "ZeRO-3 engine over budget", HETERO2048,
     scale("engine_seconds", 3), None, 1, {HETERO2048}, None),
    ("planner", "ZeRO-3 engine field missing", HETERO2048,
     drop("engine_seconds"), None, 1, {HETERO2048}, None),
    ("planner", "serial tail not a phase", PLAN2048,
     setf("serial_tail_phase", "lunch"), None, 1, {PLAN2048}, None),
    ("planner", "serial tail moved", PLAN1024,
     setf("serial_tail_phase", "scheduling"), None, 0, set(), None),
    ("planner", "mandatory record missing", PLAN64, remove, None, 1,
     {PLAN64}, None),
    ("planner", "informational record missing", PLAN128, remove, None,
     0, set(), None),
    ("planner", "ungated tail record missing", PLAN2048, remove, None,
     0, set(), None),
    ("planner", "stress: no fallback", STRESS,
     setf("used_fallback", 0), None, 1, {STRESS}, None),
    ("planner", "stress: full restart", STRESS,
     setf("fallback_restart_wave", 0), None, 1, {STRESS}, None),
    ("planner", "stress: over budget", STRESS,
     scale("plan_seconds", 3), None, 1, {STRESS}, None),
    ("planner", "stress: field missing", STRESS,
     drop("fallback_restart_wave"), None, 1, {STRESS}, None),
    ("planner", "stress: record missing", STRESS, remove, None, 1,
     {STRESS}, None),
    ("planner", "stress: not wired up", STRESS, None, remove, 1, set(),
     WIRED),

    ("collectives", "all pass", None, None, None, 0, set(), None),
    ("collectives", "Auto above FlatRing", COLL_FLAT,
     scale("flat_sync_s", 0.5), None, 1, {COLL_FLAT}, None),
    ("collectives", "Auto over budget", COLL_FLAT,
     chain(scale("auto_sync_s", 3), scale("flat_sync_s", 3)), None, 1,
     {COLL_FLAT}, None),
    ("collectives", "hierarchical delta shrank", COLL_HETERO,
     scale("sync_delta_s", 0.3), None, 1, {COLL_HETERO}, None),
    ("collectives", "sharded delta shrank", COLL_RAILS,
     scale("sharded_delta_s", 0.3), None, 1, {COLL_RAILS}, None),
    ("collectives", "Auto not 10% under Hierarchical", COLL_RAILS,
     scale("hier_sync_s", 0.47), None, 1, {COLL_RAILS}, None),
    ("collectives", "sync field missing", COLL_FLAT, drop("flat_sync_s"),
     None, 1, {COLL_FLAT}, None),
    ("collectives", "sharded field missing", COLL_RAILS,
     drop("hier_sync_s"), None, 1, {COLL_RAILS}, None),
    ("collectives", "record missing", COLL_FLAT, remove, None, 1,
     {COLL_FLAT}, None),
    ("collectives", "sharded gate not wired up", None, None,
     strip_everywhere("sharded_delta_s"), 1, set(), WIRED),

    ("replan", "all pass", None, None, None, 0, set(), None),
    ("replan", "replan over budget", REPLAN,
     scale("replan_mean_seconds", 2.5), None, 1, {REPLAN}, None),
    ("replan", "scratch 2x faster, replan unchanged", REPLAN,
     scale("scratch_mean_seconds", 0.5), None, 0, set(), None),
    ("replan", "cache never fully hit", REPLAN, setf("full_hits", 0),
     None, 1, {REPLAN}, None),
    ("replan", "field missing", REPLAN, drop("scratch_mean_seconds"),
     None, 1, {REPLAN}, None),
    ("replan", "ungated record field missing", REPLAN_INFO,
     drop("full_hits"), None, 1, {REPLAN_INFO}, None),
    ("replan", "ungated record slow", REPLAN_INFO,
     scale("replan_mean_seconds", 30), None, 0, set(), None),
    ("replan", "mandatory record missing", REPLAN, remove, None, 1,
     {REPLAN}, None),
    ("replan", "informational record missing", REPLAN_INFO, remove,
     None, 0, set(), None),
    ("replan", "not wired up", None, None,
     strip_everywhere("gate"), 1, set(), WIRED),

    ("recovery", "all pass", None, None, None, 0, set(), None),
    ("recovery", "recovery over budget", RECOVERY,
     scale("recovery_mean_seconds", 2.5), None, 1, {RECOVERY}, None),
    ("recovery", "cold 2x faster, recovery unchanged", RECOVERY,
     scale("cold_mean_seconds", 0.5), None, 0, set(), None),
    ("recovery", "cache never fully hit", RECOVERY, setf("full_hits", 0),
     None, 1, {RECOVERY}, None),
    ("recovery", "field missing", RECOVERY, drop("cold_mean_seconds"),
     None, 1, {RECOVERY}, None),
    ("recovery", "mandatory record missing", RECOVERY, remove, None, 1,
     {RECOVERY}, None),
    ("recovery", "informational record missing", CHAOS, remove, None, 0,
     set(), None),
    ("recovery", "not wired up", None, None,
     strip_everywhere("gate"), 1, set(), WIRED),

    ("service", "all pass", None, None, None, 0, set(), None),
    ("service", "responses diverged", SERIAL, setf("mismatches", 2),
     None, 1, {SERIAL}, None),
    ("service", "dedupe below floor", WORKERS8,
     setf("full_hit_rate", 0.5), None, 1, {WORKERS8}, None),
    ("service", "throughput below floor", WORKERS8,
     setf("seconds", 0.008), None, 1, {WORKERS8}, None),
    ("service", "effective_threads missing", WORKERS8,
     drop("effective_threads"), None, 1, {WORKERS8}, None),
    ("service", "small runner skips throughput", WORKERS8,
     chain(setf("seconds", 0.008), setf("effective_threads", 2.0)), None,
     0, set(), "hardware threads"),
    ("service", "quota-limited runner skips throughput", WORKERS8,
     chain(setf("seconds", 0.008), setf("hw_threads", 8),
           setf("effective_threads", 3.9)), None, 0, set(),
     "4 effective hardware threads (< 8)"),
    ("service", "full runner is gated", WORKERS8,
     chain(setf("seconds", 0.008), setf("hw_threads", 8),
           setf("effective_threads", 7.8)), None, 1, {WORKERS8}, None),
    ("service", "field missing", WORKERS8, drop("mismatches"), None, 1,
     {WORKERS8}, None),
    ("service", "serial record missing", SERIAL, remove, None, 1,
     {SERIAL, WORKERS8}, None),
    ("service", "throughput record missing", WORKERS8, remove, None, 1,
     {WORKERS8}, None),
    ("service", "not wired up", None, None,
     strip_everywhere("min_speedup"), 1, set(), WIRED),
]


def failing_records(output, names):
    """Record names that lead a line of the checker's failure list."""
    failing = set()
    for line in output.splitlines():
        if not line.startswith("  - "):
            continue
        text = line[4:]
        hits = [n for n in names
                if text.startswith(n) and text[len(n):][:1] in (":", " ")]
        if hits:
            failing.add(max(hits, key=len))
    return failing


class CheckBenchRegressionTest(unittest.TestCase):
    def check(self, artifact, record, edit_current, edit_baseline):
        baseline = load_baseline(artifact)
        current = passing_current(artifact, baseline)
        if edit_current:
            edit_current(current, record)
        if edit_baseline:
            edit_baseline(baseline, record)
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for tag, recs in (("current", current), ("baseline", baseline)):
                path = os.path.join(tmp, f"{tag}_{artifact}.json")
                with open(path, "w") as f:
                    json.dump(list(recs.values()), f)
                paths.append(path)
            status, out, err = run_checker(artifact, *paths)
        self.assertNotIn("Traceback", err)
        return status, out, failing_records(out, set(baseline) | set(current))

    def test_fixtures(self):
        for (artifact, case, record, edit_current, edit_baseline,
             want_status, want_failing, want_text) in CASES:
            with self.subTest(artifact=artifact, case=case):
                status, out, failing = self.check(
                    artifact, record, edit_current, edit_baseline)
                self.assertEqual(status, want_status, out)
                self.assertEqual(failing, want_failing, out)
                if want_text:
                    self.assertIn(want_text, out)


if __name__ == "__main__":
    unittest.main()
