#!/usr/bin/env python3
"""CI perf smoke: fail when a benchmark artifact regresses.

Seven modes, selected by the first argument:

planner — compare a fresh BENCH_planner.json (written by
bench_planner_scaling) against the checked-in budget file
bench/baseline_planner.json:

  * every 64-GPU record must stay within REGRESSION_FACTOR x its
    budgeted plan_seconds (the paper's headline scale point), as
    must every record carrying an explicit "gate" flag (the sampled
    1024- and 4096-GPU scale-envelope points — their budgets encode
    the 4096-GPU acceptance: >= 4x below the pre-incremental-sweep
    1024-GPU budget, sub-100 ms at 4096 after the regression factor);
  * every 256-GPU or "gate"-flagged record must additionally stay
    within the factor on each budgeted *per-phase* wall-clock
    (estimation / allocation / scheduling / placement seconds), so a
    regression confined to one phase cannot hide inside a healthy
    total at the largest scale;
  * every record budgeting engine_seconds (the 4096-GPU point: the
    fastest Engine::run of its planned iteration) must stay within
    the same factor of that budget;
  * serial_tail_phase — the phase a record names as its wall-clock
    tail — must be a planner phase name (PHASE_NAMES); a moved tail
    is reported, not gated.

planner-threads — gate the parallel planner's speedup at the largest
scale. For every baseline record carrying "min_speedup" (the
".../gpus=256/threads=8" points), the current run's serial record
(same name minus the /threads suffix) is divided by its parallel
record; the ratio must reach the floor. Records carry the runner's
hw_threads, and a record is only gated when the runner has at least
as many hardware threads as the record runs planner threads (and
never below 4): an oversubscribed or serial machine cannot
demonstrate a speedup, so those points are reported and skipped
rather than failed. The gate cannot silently evaporate: a current
record missing hw_threads or the serial/parallel pair fails, and a
baseline with no min_speedup record at all fails. Floors are
per-record: the placement-dominated QWenVAL-70B point carries the
headline 2x floor at 8 threads, plus a 1.5x floor at 4 threads that
stock 4-vCPU CI runners evaluate.

planner-stress — gate the promoted 512-GPU memory-fallback lane
(the Placement.MemoryFallback512GpuStress scenario, recorded by
bench_planner_scaling as "QWenVAL-stress/gpus=512"). Every baseline
record carrying "used_fallback" is a stress record. Two value gates
apply on any runner (the scenario is deterministic): the current
record must report used_fallback == 1 (the pressure ladder forced
the memory-first pass) and fallback_restart_wave > 0 (the fallback
took the partial restart, not a wave-0 full restart). The
plan_seconds wall-clock budget additionally gates, with the same
hw_threads runner gating as planner-threads (the lane plans with 8
planner threads; undersized runners report and skip the wall clock
but still evaluate the value gates). A baseline with no stress
record at all fails — the lane cannot silently stop evaluating.

collectives — compare a fresh BENCH_collectives.json (written by
bench_collectives) against bench/baseline_collectives.json. The
simulator is deterministic, so these are value gates, not wall-clock
gates:

  * every baseline record must be present;
  * Auto's exposed sync may never exceed FlatRing's (the per-call
    selector must stay a lower envelope);
  * Auto's exposed sync must stay within the factor of its budget;
  * where the budget records a positive flat-vs-Auto delta (the
    hierarchical win on mixed-size island fabrics), the current
    delta must not shrink below budget / factor — the runtime reward
    of island-aware placement cannot silently vanish;
  * on rail-rich records (baseline rails > 1) with a positive
    budgeted hierarchical-vs-sharded delta (sharded_delta_s), the
    current delta must not shrink below budget / factor, and Auto's
    exposed sync must undercut Hierarchical's by at least
    AUTO_VS_HIER_MIN_WIN (the acceptance floor for the sharded
    inter-island rings). A baseline with no rail-rich
    sharded_delta_s record at all fails — the sharded gate cannot
    silently evaporate.

replan — gate incremental replanning's advantage over from-scratch
planning. bench_fig13_arrival_storm writes BENCH_replan.json with
per-scale mean replan vs from-scratch latencies over an arrival
storm; for every baseline record in bench/baseline_replan.json
carrying "min_speedup" (the 256-GPU point), the current run's
scratch_mean_seconds / replan_mean_seconds ratio must reach the
floor, and the plan cache must have fully hit at least once (a
cache that never hits would make the ratio meaningless). The ratio
compares two wall-clocks measured in the same process on the same
machine, so it needs no per-runner budget padding; records without
a floor are informational. As with planner-threads, a baseline with
no min_speedup record at all fails — the gate cannot silently
evaporate.

recovery — gate elastic failure recovery's advantage over cold
replanning. bench_failure_recovery writes BENCH_recovery.json with
the mean cache-served recovery replan vs a from-scratch plan() on
the same surviving topology; for every baseline record in
bench/baseline_recovery.json carrying "min_speedup" (the 256-GPU
flapping-shape point), the current run's cold_mean_seconds /
recovery_mean_seconds ratio must reach the floor, and the shared
plan cache must have served at least one recovery as a full hit
(recovery latency without cache reuse is just replanning). Both
wall-clocks come from the same process on the same machine, so no
per-runner budget padding is needed; records without a floor (the
64-GPU chaos run) are informational. A baseline with no min_speedup
record at all fails — the gate cannot silently evaporate.

service — gate the PlanService multi-tenant front end.
bench_plan_service writes BENCH_service.json with per-worker-count
request throughput over an identical mixed-workload storm. Two value
gates apply to every baseline record on any runner (they are
deterministic): the byte-identity check against serial plan() must
report mismatches == 0, and the whole-plan dedupe rate must reach the
record's "min_full_hit_rate" floor. Records carrying "min_speedup"
(the 8-worker point) additionally gate wall-clock: the current run's
1-worker seconds divided by this record's seconds must reach the
floor — but, as with planner-threads, only when the runner has at
least as many hardware threads as the record runs workers (never
below 4); a serial machine reports and skips. A baseline with no
min_speedup record at all fails — the gate cannot silently
evaporate.

Wall-clock budgets are deliberately generous (several times a warm
local run) so shared CI runners do not flap. Other scale points are
reported informationally.

Usage: check_bench_regression.py
       {planner|planner-threads|planner-stress|collectives|replan|
        recovery|service}
       CURRENT_JSON BASELINE_JSON [FACTOR]
"""

import json
import sys

REGRESSION_FACTOR = 2.0

PHASE_FIELDS = (
    "estimation_seconds",
    "allocation_seconds",
    "scheduling_seconds",
    "placement_seconds",
)

# PlannerPhaseSeconds member order (kPlannerPhaseNames in
# src/planner/planner.h).
PHASE_NAMES = ("estimation", "allocation", "scheduling", "placement",
               "finalize", "diff")


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    return {rec["name"]: rec for rec in data}


def check_planner(current, baseline, factor):
    failures = []
    for name, base in sorted(baseline.items()):
        # 64 GPUs is the paper's headline point and always gates;
        # "gate" flags the scale-envelope records (1024/4096 GPUs)
        # whose budgets must be enforced, not informational.
        gate = base.get("gpus") == 64 or bool(base.get("gate"))
        phase_gate = (
            base.get("gpus") == 256 or bool(base.get("gate"))
        ) and any(f in base for f in PHASE_FIELDS)
        cur = current.get(name)
        if cur is None:
            # Only gate points are mandatory; other scale points are
            # informational (a trimmed sweep should not fail CI).
            if gate or phase_gate:
                failures.append(f"{name}: missing from current run")
            else:
                print(f"warn  {name:<24} missing from current run")
            continue
        budget = base["plan_seconds"]
        actual = cur["plan_seconds"]
        ratio = actual / budget if budget > 0 else float("inf")
        status = "OK" if ratio <= factor else ("FAIL" if gate else "warn")
        print(
            f"{status:>4}  {name:<24} plan={actual * 1e3:8.3f} ms"
            f"  budget={budget * 1e3:8.3f} ms  ratio={ratio:5.2f}x"
            + ("  [gate]" if gate else "")
        )
        if gate and ratio > factor:
            failures.append(
                f"{name}: {actual:.6f}s > {factor:.1f}x budget "
                f"{budget:.6f}s"
            )

        # Informational: where the wall-clock tail lives at this
        # scale. A moved tail is news (the next scaling push attacks
        # a different phase), not a regression.
        if "serial_tail_phase" in base and "serial_tail_phase" in cur:
            base_tail = base["serial_tail_phase"]
            cur_tail = cur["serial_tail_phase"]
            for tail in (base_tail, cur_tail):
                if tail not in PHASE_NAMES:
                    failures.append(
                        f"{name}: serial_tail_phase {tail!r} is not a "
                        f"planner phase"
                    )
            if base_tail != cur_tail:
                print(
                    f"info  {name:<24} serial tail moved: "
                    f"{base_tail} -> {cur_tail}"
                )

        if "engine_seconds" in base:
            failures += check_engine_budget(name, cur, base, factor)

        if not phase_gate:
            continue
        for field in PHASE_FIELDS:
            if field not in base:
                continue
            phase_budget = base[field]
            phase_actual = cur.get(field)
            if phase_actual is None:
                failures.append(f"{name}: {field} missing")
                continue
            phase_ratio = (
                phase_actual / phase_budget
                if phase_budget > 0
                else float("inf")
            )
            phase_status = "OK" if phase_ratio <= factor else "FAIL"
            phase = field.removesuffix("_seconds")
            print(
                f"{phase_status:>4}  {name:<24} {phase:>10}="
                f"{phase_actual * 1e3:8.3f} ms"
                f"  budget={phase_budget * 1e3:8.3f} ms"
                f"  ratio={phase_ratio:5.2f}x  [gate-256]"
            )
            if phase_ratio > factor:
                failures.append(
                    f"{name} {phase}: {phase_actual:.6f}s > "
                    f"{factor:.1f}x budget {phase_budget:.6f}s"
                )
    return failures


def check_engine_budget(name, cur, base, factor):
    """Gate a record's simulated-iteration wall clock (engine_seconds)
    with the plan_seconds rule: at most factor x its budget."""
    budget = base["engine_seconds"]
    actual = cur.get("engine_seconds")
    if actual is None:
        return [f"{name}: engine_seconds missing"]
    ratio = actual / budget if budget > 0 else float("inf")
    status = "OK" if ratio <= factor else "FAIL"
    print(
        f"{status:>4}  {name:<24} engine={actual * 1e3:8.3f} ms"
        f"  budget={budget * 1e3:8.3f} ms  ratio={ratio:5.2f}x  [gate]"
    )
    if ratio > factor:
        return [
            f"{name} engine: {actual:.6f}s > {factor:.1f}x budget "
            f"{budget:.6f}s"
        ]
    return []


MIN_HW_THREADS_FOR_SPEEDUP = 4


def check_planner_threads(current, baseline):
    failures = []
    gated = 0
    for name, base in sorted(baseline.items()):
        floor = base.get("min_speedup")
        if floor is None:
            continue
        gated += 1
        serial_name = name.split("/threads=")[0]
        cur = current.get(name)
        serial = current.get(serial_name)
        if cur is None or serial is None:
            failures.append(
                f"{name}: parallel or serial record missing from "
                f"current run"
            )
            continue
        hw_raw = cur.get("hw_threads")
        if hw_raw is None:
            # Missing field != small machine: treating it as 0 would
            # silently skip every gate on a capable runner.
            failures.append(
                f"{name}: hw_threads missing from current record "
                f"(stale BENCH_planner.json or bench regression?)"
            )
            continue
        hw = int(hw_raw)
        # A record's floor is only meaningful when every worker lane
        # has real hardware under it: gating an 8-thread run on a
        # 4-vCPU shared runner would flap on noisy neighbors, the
        # exact failure mode the padded wall-clock budgets avoid.
        needed = max(
            int(base.get("threads", 0)), MIN_HW_THREADS_FOR_SPEEDUP
        )
        if hw < needed:
            print(
                f"skip  {name:<36} runner has {hw} hardware threads "
                f"(< {needed}); this speedup gate needs parallel "
                f"hardware for every lane"
            )
            continue
        parallel_s = cur["plan_seconds"]
        serial_s = serial["plan_seconds"]
        speedup = (
            serial_s / parallel_s if parallel_s > 0 else float("inf")
        )
        ok = speedup >= floor
        status = "OK" if ok else "FAIL"
        print(
            f"{status:>4}  {name:<36} serial={serial_s * 1e3:8.3f} ms"
            f"  parallel={parallel_s * 1e3:8.3f} ms"
            f"  speedup={speedup:5.2f}x  floor={floor:.1f}x"
        )
        if not ok:
            failures.append(
                f"{name}: speedup {speedup:.2f}x < floor {floor:.1f}x"
            )
    if gated == 0:
        failures.append(
            "planner-threads: no baseline record carries min_speedup; "
            "the speedup gate is not wired up"
        )
    return failures


def check_planner_stress(current, baseline, factor):
    failures = []
    gated = 0
    for name, base in sorted(baseline.items()):
        if "used_fallback" not in base:
            continue
        gated += 1
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        used = cur.get("used_fallback")
        restart = cur.get("fallback_restart_wave")
        seconds = cur.get("plan_seconds")
        if used is None or restart is None or seconds is None:
            failures.append(f"{name}: stress fields missing")
            continue

        problems = []
        # Value gates: deterministic, hold on any runner.
        if int(used) != 1:
            problems.append(
                "pressure ladder never forced the memory-first "
                "fallback pass"
            )
        elif int(restart) <= 0:
            problems.append(
                "fallback restarted from wave 0 (full restart) — the "
                "partial-restart path stopped engaging at 512 GPUs"
            )

        # Wall-clock gate: only on runners with real hardware under
        # every planner thread (see planner-threads).
        wall_txt = ""
        hw_raw = cur.get("hw_threads")
        if hw_raw is None:
            problems.append(
                "hw_threads missing from current record (stale "
                "BENCH_planner.json or bench regression?)"
            )
        else:
            needed = max(
                int(base.get("threads", 0)), MIN_HW_THREADS_FOR_SPEEDUP
            )
            if int(hw_raw) < needed:
                print(
                    f"skip  {name:<24} wall clock ungated: runner has "
                    f"{int(hw_raw)} hardware threads (< {needed})"
                )
            else:
                budget = base["plan_seconds"]
                ratio = (
                    seconds / budget if budget > 0 else float("inf")
                )
                wall_txt = (
                    f"  plan={seconds * 1e3:8.3f} ms"
                    f"  budget={budget * 1e3:8.3f} ms"
                    f"  ratio={ratio:5.2f}x"
                )
                if ratio > factor:
                    problems.append(
                        f"plan {seconds:.6f}s > {factor:.1f}x budget "
                        f"{budget:.6f}s"
                    )

        status = "FAIL" if problems else "OK"
        print(
            f"{status:>4}  {name:<24} used_fallback={int(used)}"
            f"  restart_wave={int(restart)}{wall_txt}"
        )
        for p in problems:
            failures.append(f"{name}: {p}")
    if gated == 0:
        failures.append(
            "planner-stress: no baseline record carries "
            "used_fallback; the 512-GPU stress lane is not wired up"
        )
    return failures


# On rail-rich fabrics Auto (which picks the sharded rings) must beat
# plain Hierarchical by at least this fraction of exposed sync — the
# deterministic-simulator acceptance floor for sharding, not a padded
# wall-clock budget.
AUTO_VS_HIER_MIN_WIN = 0.10


def check_collectives(current, baseline, factor):
    failures = []
    sharded_gates = 0
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        flat = cur.get("flat_sync_s")
        auto = cur.get("auto_sync_s")
        delta = cur.get("sync_delta_s")
        if flat is None or auto is None or delta is None:
            failures.append(f"{name}: sync fields missing")
            continue

        problems = []
        # The Auto selector is a lower envelope of the algorithms.
        if auto > flat + 1e-12:
            problems.append(
                f"Auto sync {auto:.6f}s exceeds FlatRing {flat:.6f}s"
            )
        # Exposed sync must not regress against the budget.
        budget_auto = base["auto_sync_s"]
        if budget_auto > 0 and auto > factor * budget_auto:
            problems.append(
                f"Auto sync {auto:.6f}s > {factor:.1f}x budget "
                f"{budget_auto:.6f}s"
            )
        # The hierarchical win must not silently vanish.
        budget_delta = base.get("sync_delta_s", 0.0)
        if budget_delta > 0 and delta < budget_delta / factor:
            problems.append(
                f"sync delta {delta:.6f}s < budget "
                f"{budget_delta:.6f}s / {factor:.1f}"
            )
        # Rail-rich fabrics additionally gate the sharded rings: the
        # hier-vs-sharded delta must not shrink below budget, and Auto
        # must keep undercutting Hierarchical by the acceptance floor.
        budget_sharded = base.get("sharded_delta_s", 0.0)
        if base.get("rails", 1) > 1 and budget_sharded > 0:
            sharded_gates += 1
            hier = cur.get("hier_sync_s")
            sharded_delta = cur.get("sharded_delta_s")
            if hier is None or sharded_delta is None:
                problems.append("sharded sync fields missing")
            else:
                if sharded_delta < budget_sharded / factor:
                    problems.append(
                        f"sharded delta {sharded_delta:.6f}s < budget "
                        f"{budget_sharded:.6f}s / {factor:.1f}"
                    )
                if auto > (1.0 - AUTO_VS_HIER_MIN_WIN) * hier:
                    problems.append(
                        f"Auto sync {auto:.6f}s not >= "
                        f"{AUTO_VS_HIER_MIN_WIN:.0%} below "
                        f"Hierarchical {hier:.6f}s"
                    )

        status = "FAIL" if problems else "OK"
        print(
            f"{status:>4}  {name:<44} auto={auto * 1e3:8.3f} ms"
            f"  flat={flat * 1e3:8.3f} ms"
            f"  delta={delta * 1e3:8.3f} ms"
        )
        for p in problems:
            failures.append(f"{name}: {p}")
    if sharded_gates == 0:
        failures.append(
            "collectives: no rail-rich baseline record carries "
            "sharded_delta_s; the sharded-ring gate is not wired up"
        )
    return failures


def check_replan(current, baseline):
    failures = []
    gated = 0
    for name, base in sorted(baseline.items()):
        floor = base.get("min_speedup")
        cur = current.get(name)
        if cur is None:
            if floor is not None:
                failures.append(f"{name}: missing from current run")
            else:
                print(f"warn  {name:<24} missing from current run")
            continue
        replan_s = cur.get("replan_mean_seconds")
        scratch_s = cur.get("scratch_mean_seconds")
        full_hits = cur.get("full_hits")
        if replan_s is None or scratch_s is None or full_hits is None:
            failures.append(f"{name}: replan fields missing")
            continue
        speedup = scratch_s / replan_s if replan_s > 0 else float("inf")
        if floor is None:
            print(
                f"info  {name:<24} replan={replan_s * 1e3:8.3f} ms"
                f"  scratch={scratch_s * 1e3:8.3f} ms"
                f"  speedup={speedup:6.1f}x  (ungated)"
            )
            continue
        gated += 1
        problems = []
        if speedup < floor:
            problems.append(
                f"replan speedup {speedup:.1f}x < floor {floor:.1f}x"
            )
        if full_hits < 1:
            problems.append(
                "plan cache never fully hit during the storm"
            )
        status = "FAIL" if problems else "OK"
        print(
            f"{status:>4}  {name:<24} replan={replan_s * 1e3:8.3f} ms"
            f"  scratch={scratch_s * 1e3:8.3f} ms"
            f"  speedup={speedup:6.1f}x  floor={floor:.1f}x"
            f"  full_hits={int(full_hits)}"
        )
        for p in problems:
            failures.append(f"{name}: {p}")
    if gated == 0:
        failures.append(
            "replan: no baseline record carries min_speedup; the "
            "replan gate is not wired up"
        )
    return failures


def check_recovery(current, baseline):
    failures = []
    gated = 0
    for name, base in sorted(baseline.items()):
        floor = base.get("min_speedup")
        cur = current.get(name)
        if cur is None:
            if floor is not None:
                failures.append(f"{name}: missing from current run")
            else:
                print(f"warn  {name:<24} missing from current run")
            continue
        if floor is None:
            episodes = cur.get("episodes", cur.get("events", 0))
            print(
                f"info  {name:<24} episodes={int(episodes)}  (ungated)"
            )
            continue
        gated += 1
        recovery_s = cur.get("recovery_mean_seconds")
        cold_s = cur.get("cold_mean_seconds")
        full_hits = cur.get("full_hits")
        if recovery_s is None or cold_s is None or full_hits is None:
            failures.append(f"{name}: recovery fields missing")
            continue
        speedup = (
            cold_s / recovery_s if recovery_s > 0 else float("inf")
        )
        problems = []
        if speedup < floor:
            problems.append(
                f"recovery speedup {speedup:.1f}x < floor {floor:.1f}x"
            )
        if full_hits < 1:
            problems.append(
                "plan cache never served a recovery as a full hit"
            )
        status = "FAIL" if problems else "OK"
        print(
            f"{status:>4}  {name:<24} recovery={recovery_s * 1e3:8.3f} ms"
            f"  cold={cold_s * 1e3:8.3f} ms"
            f"  speedup={speedup:6.1f}x  floor={floor:.1f}x"
            f"  full_hits={int(full_hits)}"
        )
        for p in problems:
            failures.append(f"{name}: {p}")
    if gated == 0:
        failures.append(
            "recovery: no baseline record carries min_speedup; the "
            "recovery gate is not wired up"
        )
    return failures


def check_service(current, baseline):
    failures = []
    gated = 0
    for name, base in sorted(baseline.items()):
        floor = base.get("min_speedup")
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        mismatches = cur.get("mismatches")
        hit_rate = cur.get("full_hit_rate")
        seconds = cur.get("seconds")
        if mismatches is None or hit_rate is None or seconds is None:
            failures.append(f"{name}: service fields missing")
            continue

        problems = []
        # Deterministic value gates: apply on every runner.
        if mismatches != 0:
            problems.append(
                f"{int(mismatches)} responses diverged from serial "
                f"plan() — the byte-identity contract is broken"
            )
        hit_floor = base.get("min_full_hit_rate")
        if hit_floor is not None and hit_rate < hit_floor:
            problems.append(
                f"dedupe full-hit rate {hit_rate:.3f} < floor "
                f"{hit_floor:.3f}"
            )

        # Wall-clock gate: 1-worker seconds / this record's seconds.
        speedup_txt = ""
        if floor is not None:
            gated += 1
            serial_name = name.split("/workers=")[0] + "/workers=1"
            serial = current.get(serial_name)
            hw_raw = cur.get("hw_threads")
            if serial is None:
                problems.append(
                    f"serial record {serial_name} missing from "
                    f"current run"
                )
            elif hw_raw is None:
                # Missing field != small machine (see planner-threads).
                problems.append(
                    "hw_threads missing from current record (stale "
                    "BENCH_service.json or bench regression?)"
                )
            else:
                needed = max(
                    int(base.get("workers", 0)),
                    MIN_HW_THREADS_FOR_SPEEDUP,
                )
                if int(hw_raw) < needed:
                    print(
                        f"skip  {name:<36} runner has {int(hw_raw)} "
                        f"hardware threads (< {needed}); the "
                        f"throughput gate needs parallel hardware "
                        f"for every worker"
                    )
                else:
                    serial_s = serial["seconds"]
                    speedup = (
                        serial_s / seconds
                        if seconds > 0
                        else float("inf")
                    )
                    speedup_txt = (
                        f"  speedup={speedup:5.2f}x  floor={floor:.1f}x"
                    )
                    if speedup < floor:
                        problems.append(
                            f"throughput speedup {speedup:.2f}x < "
                            f"floor {floor:.1f}x"
                        )

        status = "FAIL" if problems else "OK"
        print(
            f"{status:>4}  {name:<36} seconds={seconds:8.3f}"
            f"  hit_rate={hit_rate:.3f}"
            f"  mismatches={int(mismatches)}{speedup_txt}"
        )
        for p in problems:
            failures.append(f"{name}: {p}")
    if gated == 0:
        failures.append(
            "service: no baseline record carries min_speedup; the "
            "service throughput gate is not wired up"
        )
    return failures


def main(argv):
    if len(argv) not in (4, 5) or argv[1] not in (
        "planner",
        "planner-threads",
        "planner-stress",
        "collectives",
        "replan",
        "recovery",
        "service",
    ):
        print(__doc__)
        return 2
    mode = argv[1]
    current = load_records(argv[2])
    baseline = load_records(argv[3])
    factor = float(argv[4]) if len(argv) == 5 else REGRESSION_FACTOR

    if mode == "planner":
        failures = check_planner(current, baseline, factor)
    elif mode == "planner-threads":
        failures = check_planner_threads(current, baseline)
    elif mode == "planner-stress":
        failures = check_planner_stress(current, baseline, factor)
    elif mode == "replan":
        failures = check_replan(current, baseline)
    elif mode == "recovery":
        failures = check_recovery(current, baseline)
    elif mode == "service":
        failures = check_service(current, baseline)
    else:
        failures = check_collectives(current, baseline, factor)

    # Current-only records carry no budget and are therefore ungated;
    # say so rather than silently skipping them.
    for name in sorted(set(current) - set(baseline)):
        print(f"warn  {name:<44} not in baseline (ungated)")

    if failures:
        print(f"\n{mode} bench regression detected:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\n{mode} bench within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
