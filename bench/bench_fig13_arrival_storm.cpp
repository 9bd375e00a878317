/**
 * @file
 * Arrival-storm bench: hundreds of task arrivals/departures at
 * 256-1024 GPU scale, measuring ExecutionPlanner::replan() against
 * a from-scratch plan() at every event.
 *
 * A deterministic random walk over Multitask-CLIP task counts plays
 * the Fig. 13 dynamicity story at storm intensity: each event adds
 * or removes one task and the planner replans the new mix. The
 * incremental path must (a) emit plans byte-identical to plan() —
 * checked here on sampled events, exhaustively in
 * planner_equivalence_test — and (b) beat from-scratch latency by
 * >= 10x at 256 GPUs (gated in CI by check_bench_regression.py
 * against bench/baseline_replan.json).
 *
 * Emits BENCH_replan.json (override the path with the
 * SPINDLE_BENCH_JSON environment variable).
 */

#include <cstdlib>
#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

/** Deterministic 64-bit LCG (MMIX constants), top-bits output. */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
}

/** Byte-level equality of a replanned vs from-scratch output. */
void
checkIdentical(const PlannerOutput &scratch, const PlannerOutput &inc,
               std::uint32_t gpus, std::uint32_t event)
{
    auto mismatch = [&](const char *what) {
        panic(strCat("arrival storm: replan() diverged from plan() (",
                     what, ") at gpus=", gpus, " event=", event));
    };
    if (scratch.plan.estimatedSpan != inc.plan.estimatedSpan ||
        scratch.plan.theoreticalOptimum != inc.plan.theoreticalOptimum)
        mismatch("span");
    if (scratch.plan.waves.size() != inc.plan.waves.size())
        mismatch("wave count");
    for (std::size_t w = 0; w < scratch.plan.waves.size(); ++w) {
        const Wave &a = scratch.plan.waves[w];
        const Wave &b = inc.plan.waves[w];
        if (a.entries.size() != b.entries.size())
            mismatch("entry count");
        for (std::size_t i = 0; i < a.entries.size(); ++i) {
            const WaveEntry &x = a.entries[i];
            const WaveEntry &y = b.entries[i];
            if (x.metaOp != y.metaOp || x.n != y.n ||
                x.opBegin != y.opBegin || x.numOps != y.numOps ||
                x.duration != y.duration || x.devices != y.devices)
                mismatch("wave entry");
        }
    }
    if (scratch.placement.estimatedCommSeconds !=
            inc.placement.estimatedCommSeconds ||
        scratch.placement.interIslandCommSeconds !=
            inc.placement.interIslandCommSeconds ||
        scratch.placement.peakBytes != inc.placement.peakBytes ||
        scratch.placement.usedMemoryFallback !=
            inc.placement.usedMemoryFallback)
        mismatch("placement");
}

void
runStorm(std::uint32_t nodes, std::uint32_t events,
         std::uint32_t scratch_every, BenchJsonWriter &json, Table &table)
{
    ClusterTopology topo = makeCluster(nodes);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);

    // Pre-build one graph per task count the walk can visit — graph
    // construction and contraction are workload ingestion, not
    // replanning, and are excluded from both timings.
    constexpr std::uint32_t kMinTasks = 3;
    constexpr std::uint32_t kMaxTasks = 10;
    std::vector<ComputationGraph> graphs;
    std::vector<MetaGraph> metas;
    graphs.reserve(kMaxTasks - kMinTasks + 1);
    metas.reserve(kMaxTasks - kMinTasks + 1);
    for (std::uint32_t t = kMinTasks; t <= kMaxTasks; ++t) {
        graphs.push_back(buildMultitaskClip({.numTasks = t}));
        metas.push_back(contractGraph(graphs.back()));
    }

    std::uint64_t rng = 0x5eed;
    std::uint32_t tasks = 4;
    double replan_seconds = 0;
    double scratch_seconds = 0;
    std::uint64_t scratch_samples = 0;
    std::uint64_t full_hits = 0;
    std::uint64_t reused_levels = 0;
    std::uint64_t curve_hits = 0, curve_misses = 0;
    std::uint64_t alloc_hits = 0, alloc_misses = 0;

    for (std::uint32_t e = 0; e < events; ++e) {
        // One arrival or departure per event, walking [kMin, kMax].
        if ((nextRand(rng) & 1) != 0)
            tasks = std::min(kMaxTasks, tasks + 1);
        else
            tasks = std::max(kMinTasks, tasks - 1);
        const MetaGraph &meta = metas[tasks - kMinTasks];

        PlannerOutput inc = planner.replan(meta);
        replan_seconds += inc.planningSeconds;
        full_hits += inc.replan.fullHit ? 1 : 0;
        reused_levels += inc.replan.reusedLevels;
        curve_hits += inc.replan.curveHits;
        curve_misses += inc.replan.curveMisses;
        alloc_hits += inc.replan.allocHits;
        alloc_misses += inc.replan.allocMisses;

        if (e % scratch_every == 0) {
            PlannerOutput scratch = planner.plan(meta);
            scratch_seconds += scratch.planningSeconds;
            ++scratch_samples;
            checkIdentical(scratch, inc, topo.numDevices(), e);
        }
    }

    const double replan_mean = replan_seconds / events;
    const double scratch_mean =
        scratch_seconds / static_cast<double>(scratch_samples);
    const double speedup = scratch_mean / replan_mean;

    const std::string name =
        strCat("CLIP-storm/gpus=", topo.numDevices());
    json.record(
        name,
        withThreadFields(
            {{"gpus", static_cast<double>(topo.numDevices())},
             {"events", static_cast<double>(events)},
             {"replan_mean_seconds", replan_mean},
             {"scratch_mean_seconds", scratch_mean},
             {"speedup", speedup},
             {"full_hits", static_cast<double>(full_hits)},
             {"reused_levels", static_cast<double>(reused_levels)},
             {"curve_hits", static_cast<double>(curve_hits)},
             {"curve_misses", static_cast<double>(curve_misses)},
             {"alloc_hits", static_cast<double>(alloc_hits)},
             {"alloc_misses", static_cast<double>(alloc_misses)}}));
    table.addRow({strCat(topo.numDevices()), strCat(events),
                  Table::fmt(toMs(replan_mean), 3),
                  Table::fmt(toMs(scratch_mean), 3),
                  Table::fmt(speedup, 1),
                  strCat(full_hits, "/", events)});
}

} // namespace

int
main()
{
    std::cout << "=== Arrival storm: incremental replan vs from-scratch "
                 "===\n";

    BenchJsonWriter json;
    Table table({"gpus", "events", "replan_mean_ms", "scratch_mean_ms",
                 "speedup", "full_hits"});

    // 256 GPUs: the gated point — every event cross-checked against
    // a from-scratch plan. 1024 GPUs: scale point, sampled checks.
    runStorm(/*nodes=*/32, /*events=*/240, /*scratch_every=*/1, json,
             table);
    runStorm(/*nodes=*/128, /*events=*/48, /*scratch_every=*/8, json,
             table);

    table.printAligned(std::cout);
    std::cout << "\nEvery event adds or removes one Multitask-CLIP task "
                 "and replans the new mix; replan() output is verified "
                 "byte-identical to plan() on sampled events.\n";

    const char *override_path = std::getenv("SPINDLE_BENCH_JSON");
    const std::string path =
        override_path != nullptr ? override_path : "BENCH_replan.json";
    if (json.writeFile(path))
        std::cout << "\nwrote " << path << "\n";
    else
        std::cerr << "\nfailed to write " << path << "\n";
    return 0;
}
