#!/usr/bin/env python3
"""CI perf smoke: fail when a benchmark artifact regresses.

Usage: check_bench_regression.py CURRENT_JSON BASELINE_JSON

Compares a fresh BENCH_*.json against its checked-in
bench/baseline_*.json. One loop walks the baseline records in name
order. The fields a baseline record carries select the gates that
apply to it (see gates()):

  gate: 1           plan_seconds and every budgeted phase within
                    REGRESSION_FACTOR x budget (the 64-GPU headline
                    points, the 1024/2048/4096-GPU scale envelope and
                    the 512-GPU stress lane)
  gate_phases: 1    every budgeted phase (estimation / allocation /
                    scheduling / placement seconds) within the factor
                    (the 256-GPU points)
  engine_seconds    the fastest Engine::run within the factor
  serial_tail_phase names a planner phase (a moved tail is news, not
                    a regression)
  used_fallback     the 512-GPU stress lane took the memory-first pass
                    and restarted it past wave 0
  auto_sync_s       Auto's exposed sync stays a lower envelope of
                    FlatRing, within the factor of its budget, and the
                    hierarchical win (sync_delta_s) does not shrink
                    below budget / factor
  rails > 1 with sharded_delta_s > 0
                    the sharded-ring win does not shrink below
                    budget / factor, and Auto undercuts Hierarchical
                    by AUTO_VS_HIER_MIN_WIN
  replan_mean_seconds / recovery_mean_seconds
                    with gate: 1, the mean full-hit replan (recovery)
                    within the factor of its budget, with at least one
                    full plan-cache hit; the same-process speedup over
                    from-scratch planning is reported, not gated
                    (without gate: 1 both are only reported)
  min_full_hit_rate no service response diverged from serial plan(),
                    and the whole-plan dedupe rate reaches the floor
  min_speedup with workers
                    the 1-worker storm's seconds over this record's
                    reach the floor, on runners with a hardware thread
                    per worker (at least MIN_HW_THREADS_FOR_SPEEDUP),
                    counted as the run's spin-calibrated
                    effective_threads rounded to the nearest integer,
                    so a CPU quota below the reported count skips

A record that selects a mandatory gate must be in the current run;
other records are informational and only warn when missing. A
present record fails when it lacks a field one of its gates reads.
A file whose records carry a measurement in WIRED must have a
baseline record selecting its gate, so no gate silently evaporates.

Wall-clock budgets are deliberately generous (several times a warm
local run) so shared CI runners do not flap; the service speedup
floor compares two wall-clocks from one process and needs no
padding; the simulator's facts are deterministic and gate on every
runner.
"""

import json
import sys

REGRESSION_FACTOR = 2.0

# On rail-rich fabrics Auto (which picks the sharded rings) must beat
# plain Hierarchical by at least this fraction of exposed sync — the
# deterministic-simulator acceptance floor for sharding, not a padded
# wall-clock budget.
AUTO_VS_HIER_MIN_WIN = 0.10

MIN_HW_THREADS_FOR_SPEEDUP = 4

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
        return {rec["name"]: rec for rec in json.load(f)}


def ratio(num, den):
    return num / den if den > 0 else float("inf")


def reads(*fields):
    """Declare the current-record fields a check reads; the loop fails
    a record that lacks one instead of running the check."""
    def mark(check):
        check.reads = fields
        return check
    return mark


def budget(field, enforced=True):
    """The current value within REGRESSION_FACTOR x its budget (only
    reported when not enforced)."""
    label = field.removesuffix("_seconds")

    @reads(field)
    def check(cur, base, _current):
        actual, limit = cur[field], base[field]
        r = ratio(actual, limit)
        text = f"{label}={actual * 1e3:.3f}/{limit * 1e3:.3f}ms({r:.2f}x)"
        if r <= REGRESSION_FACTOR or not enforced:
            return text, []
        return text, [f"{label} {actual:.6f}s > {REGRESSION_FACTOR:.1f}x "
                      f"budget {limit:.6f}s"]
    return check


@reads()
def serial_tail(cur, base, _current):
    base_tail = base["serial_tail_phase"]
    cur_tail = cur.get("serial_tail_phase")
    if cur_tail is None:
        return "", []
    problems = [f"serial_tail_phase {t!r} is not a planner phase"
                for t in (base_tail, cur_tail) if t not in PHASE_NAMES]
    if base_tail != cur_tail:
        return f"tail moved {base_tail}->{cur_tail}", problems
    return f"tail={cur_tail}", problems


@reads("used_fallback", "fallback_restart_wave")
def stress(cur, _base, _current):
    used = int(cur["used_fallback"])
    restart = int(cur["fallback_restart_wave"])
    text = f"used_fallback={used}  restart_wave={restart}"
    if used != 1:
        return text, ["pressure ladder never forced the memory-first "
                      "fallback pass"]
    if restart <= 0:
        return text, ["fallback restarted from wave 0 (full restart) — "
                      "the partial-restart path stopped engaging at 512 "
                      "GPUs"]
    return text, []


@reads("flat_sync_s", "auto_sync_s", "sync_delta_s")
def collectives(cur, base, _current):
    flat, auto, delta = (cur["flat_sync_s"], cur["auto_sync_s"],
                         cur["sync_delta_s"])
    auto_budget = base["auto_sync_s"]
    delta_budget = base.get("sync_delta_s", 0.0)
    problems = []
    # The Auto selector is a lower envelope of the algorithms.
    if auto > flat + 1e-12:
        problems.append(f"Auto sync {auto:.6f}s exceeds FlatRing "
                        f"{flat:.6f}s")
    if auto_budget > 0 and auto > REGRESSION_FACTOR * auto_budget:
        problems.append(f"Auto sync {auto:.6f}s > {REGRESSION_FACTOR:.1f}x "
                        f"budget {auto_budget:.6f}s")
    # The hierarchical win on mixed-size islands must not vanish.
    if delta_budget > 0 and delta < delta_budget / REGRESSION_FACTOR:
        problems.append(f"sync delta {delta:.6f}s < budget "
                        f"{delta_budget:.6f}s / {REGRESSION_FACTOR:.1f}")
    text = (f"auto={auto * 1e3:.3f}ms  flat={flat * 1e3:.3f}ms  "
            f"delta={delta * 1e3:.3f}ms")
    return text, problems


def rail_rich(base):
    return base.get("rails", 1) > 1 and base.get("sharded_delta_s", 0.0) > 0


@reads("auto_sync_s", "hier_sync_s", "sharded_delta_s")
def sharded(cur, base, _current):
    auto, hier, delta = (cur["auto_sync_s"], cur["hier_sync_s"],
                         cur["sharded_delta_s"])
    problems = []
    if delta < base["sharded_delta_s"] / REGRESSION_FACTOR:
        problems.append(f"sharded delta {delta:.6f}s < budget "
                        f"{base['sharded_delta_s']:.6f}s / "
                        f"{REGRESSION_FACTOR:.1f}")
    if auto > (1.0 - AUTO_VS_HIER_MIN_WIN) * hier:
        problems.append(f"Auto sync {auto:.6f}s not >= "
                        f"{AUTO_VS_HIER_MIN_WIN:.0%} below Hierarchical "
                        f"{hier:.6f}s")
    return f"sharded_delta={delta * 1e3:.3f}ms", problems


def cache_hits(fast, slow, never_hit):
    """At least one full plan-cache hit (enforced with gate: 1); the
    same-process speedup cur[slow] / cur[fast] is reported only."""
    @reads(fast, slow, "full_hits")
    def check(cur, base, _current):
        s = ratio(cur[slow], cur[fast])
        text = (f"{slow.split('_')[0]}={cur[slow] * 1e3:.3f}ms  "
                f"speedup={s:.1f}x  full_hits={int(cur['full_hits'])}")
        if "gate" in base and cur["full_hits"] < 1:
            return text, [never_hit]
        return text, []
    return check


@reads("mismatches", "full_hit_rate", "seconds")
def service(cur, base, _current):
    mismatches, hit_rate = int(cur["mismatches"]), cur["full_hit_rate"]
    problems = []
    if mismatches != 0:
        problems.append(f"{mismatches} responses diverged from serial "
                        f"plan() — the byte-identity contract is broken")
    if hit_rate < base["min_full_hit_rate"]:
        problems.append(f"dedupe full-hit rate {hit_rate:.3f} < floor "
                        f"{base['min_full_hit_rate']:.3f}")
    text = (f"seconds={cur['seconds']:.3f}  hit_rate={hit_rate:.3f}  "
            f"mismatches={mismatches}")
    return text, problems


@reads("seconds", "effective_threads")
def throughput(cur, base, current):
    """The 1-worker storm's seconds over this record's reach the floor,
    given an effective thread per worker."""
    serial_name = cur["name"].split("/workers=")[0] + "/workers=1"
    serial_s = current.get(serial_name, {}).get("seconds")
    if serial_s is None:
        return "", [f"serial record {serial_name} seconds missing from "
                    f"current run"]
    needed = max(int(base["workers"]), MIN_HW_THREADS_FOR_SPEEDUP)
    threads = round(cur["effective_threads"])
    if threads < needed:
        return (f"skip: runner has {threads} effective hardware "
                f"threads (< {needed})"), []
    s, floor = ratio(serial_s, cur["seconds"]), base["min_speedup"]
    text = f"speedup={s:.2f}x  floor={floor:.1f}x"
    if s < floor:
        return text, [f"throughput speedup {s:.2f}x < floor {floor:.1f}x"]
    return text, []


def has_floor(base):
    return "min_speedup" in base


def budgeted(field):
    """Selects a baseline record whose `field` budget is enforced."""
    return lambda base: "gate" in base and field in base


REPLAN_HITS = cache_hits("replan_mean_seconds", "scratch_mean_seconds",
                         "plan cache never fully hit during the storm")
RECOVERY_HITS = cache_hits(
    "recovery_mean_seconds", "cold_mean_seconds",
    "plan cache never served a recovery as a full hit")


def gates(base):
    """The gates `base` selects by the fields it carries, as
    (mandatory, check) pairs. A check maps (current record, baseline
    record, current run) to (status text, problems)."""
    enforced = "gate" in base
    if "plan_seconds" in base:
        yield enforced, budget("plan_seconds", enforced)
    if enforced or "gate_phases" in base:
        for field in PHASE_FIELDS:
            if field in base:
                yield True, budget(field)
    if "engine_seconds" in base:
        yield True, budget("engine_seconds")
    if "serial_tail_phase" in base:
        yield False, serial_tail
    if "used_fallback" in base:
        yield True, stress
    if "auto_sync_s" in base:
        yield True, collectives
    if rail_rich(base):
        yield True, sharded
    if "replan_mean_seconds" in base:
        yield enforced, budget("replan_mean_seconds", enforced)
        yield enforced, REPLAN_HITS
    if "recovery_mean_seconds" in base:
        yield enforced, budget("recovery_mean_seconds", enforced)
        yield enforced, RECOVERY_HITS
    if "min_full_hit_rate" in base:
        yield True, service
    if has_floor(base) and "workers" in base:
        yield True, throughput


# (fields, the gate, what it guards): a file whose baseline or current
# records carry one of the fields must have a baseline record that
# selects the gate.
WIRED = (
    (("plan_seconds",), lambda b: "used_fallback" in b,
     "the 512-GPU memory-fallback stress lane"),
    (("auto_sync_s",), rail_rich, "the sharded-ring gate"),
    (("replan_mean_seconds",), budgeted("replan_mean_seconds"),
     "the replan budget"),
    (("recovery_mean_seconds", "episodes"),
     budgeted("recovery_mean_seconds"), "the recovery budget"),
    (("workers",), has_floor, "the service throughput floor"),
)


def check(current, baseline):
    failures = []
    for name, base in sorted(baseline.items()):
        selected = list(gates(base))
        mandatory = any(m for m, _ in selected)
        cur = current.get(name)
        if cur is None:
            if mandatory:
                failures.append(f"{name}: missing from current run")
            else:
                print(f"warn  {name:<44} missing from current run")
            continue
        texts, problems = [], []
        for _, gate in selected:
            missing = [f for f in gate.reads if cur.get(f) is None]
            if missing:
                problems.append(f"{', '.join(missing)} missing")
                continue
            text, found = gate(cur, base, current)
            texts.append(text)
            problems += found
        status = "FAIL" if problems else ("OK" if mandatory else "info")
        line = "  ".join(t for t in texts if t)
        print(f"{status:>4}  {name:<44} {line}".rstrip())
        failures += [f"{name}: {p}" for p in problems]

    records = list(baseline.values()) + list(current.values())
    for fields, selects, what in WIRED:
        carried = any(f in rec for rec in records for f in fields)
        if carried and not any(selects(b) for b in baseline.values()):
            failures.append(f"no baseline record selects {what}; the gate "
                            f"is not wired up")

    # Current-only records carry no budget and are therefore ungated;
    # say so rather than silently skipping them.
    for name in sorted(set(current) - set(baseline)):
        print(f"warn  {name:<44} not in baseline (ungated)")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    failures = check(load_records(argv[1]), load_records(argv[2]))
    if failures:
        print(f"\n{argv[1]}: bench regression detected:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\n{argv[1]}: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
