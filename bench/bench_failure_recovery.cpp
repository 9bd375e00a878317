/**
 * @file
 * Failure-recovery bench: elastic recovery latency against cold
 * replanning (ROADMAP "Failure and elasticity scenarios").
 *
 * Two scenarios:
 *
 *  - 64-GPU chaos run (informational): a seeded ChaosInjector
 *    schedule — two random kills per iteration with rejoins — driven
 *    end-to-end through the RecoveryCoordinator, reporting episode
 *    counts, downtime, lost work, and post-failure throughput.
 *
 *  - 256-GPU flapping-shape storm (the gated point): two in-use
 *    devices alternately fail mid-iteration and rejoin, so the same
 *    two surviving shapes recur. After each shape's first episode the
 *    coordinator's shared PlanCache serves every recovery replan as a
 *    full hit; the mean full-hit recovery replan must beat a cold
 *    from-scratch plan() on the same surviving topology by >= 3x
 *    (gated in CI by scripts/check_bench_regression.py against
 *    bench/baseline_recovery.json).
 *
 * Emits BENCH_recovery.json (override the path with the
 * SPINDLE_BENCH_JSON environment variable).
 */

#include <cstdlib>
#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

/** Devices the plan actually reserves, ascending. */
DeviceSet
usedDevices(const ExecutionPlan &plan)
{
    std::vector<bool> used(plan.numDevices, false);
    for (const Wave &w : plan.waves)
        for (const WaveEntry &e : w.entries)
            for (DeviceId d : e.devices)
                used[d] = true;
    DeviceSet out;
    for (DeviceId d = 0; d < plan.numDevices; ++d)
        if (used[d])
            out.push_back(d);
    return out;
}

/** Seeded random chaos at 64 GPUs, end to end (informational). */
void
runChaos(BenchJsonWriter &json, Table &table)
{
    ClusterTopology topo = makeCluster(8); // 64 GPUs
    HardwareModel hw(topo);
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    ChaosOptions copts;
    copts.iterations = 6;
    copts.killsPerIteration = 2;
    copts.rejoinAfter = 2;
    copts.seed = 7;
    FaultPlan faults = ChaosInjector(copts).generate(topo);

    RecoveryCoordinator coord(hw, meta);
    FaultedRunResult run = coord.run(faults, copts.iterations);
    const RecoveryStats &rec = run.recovery;

    double throughput_ratio = 0;
    std::uint64_t full_hits = 0;
    for (const RecoveryOutcome &ep : rec.outcomes) {
        throughput_ratio += ep.throughputRatio();
        full_hits += ep.replan.fullHit ? 1 : 0;
    }
    const double episodes = std::max<std::uint32_t>(rec.episodes, 1);

    json.record(
        "chaos/gpus=64",
        {{"gpus", static_cast<double>(topo.numDevices())},
         {"iterations", static_cast<double>(copts.iterations)},
         {"episodes", static_cast<double>(rec.episodes)},
         {"full_hits", static_cast<double>(full_hits)},
         {"rejoined_devices", static_cast<double>(rec.rejoinedDevices)},
         {"mean_downtime_seconds", rec.totalDowntimeSeconds / episodes},
         {"mean_replan_seconds", rec.totalReplanSeconds / episodes},
         {"total_lost_work_seconds", rec.totalLostWorkSeconds},
         {"mean_throughput_ratio", throughput_ratio / episodes},
         {"total_seconds", run.totalSeconds}});
    table.addRow({"chaos/64", strCat(rec.episodes),
                  Table::fmt(toMs(rec.totalReplanSeconds / episodes), 3),
                  "-", "-", strCat(full_hits, "/", rec.episodes)});
}

/** Flapping-shape storm at 256 GPUs: the gated recovery point. */
void
runFlapStorm(BenchJsonWriter &json, Table &table)
{
    ClusterTopology topo = makeCluster(32); // 256 GPUs
    HardwareModel hw(topo);
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    // Victims must carry scheduled work or a mid-iteration kill would
    // drain instead of aborting: pick the first and last devices the
    // base plan reserves (usually in different islands, so the two
    // surviving shapes are distinct cache contexts).
    DeviceSet used;
    {
        ExecutionPlanner scout(hw);
        used = usedDevices(scout.plan(meta).plan);
    }
    panicIf(used.size() < 2,
            "flap storm: base plan uses fewer than two devices");
    const std::uint32_t victims[2] = {used.front(), used.back()};

    // Device A fails mid-iteration 0 and rejoins at the iteration-1
    // boundary, where device B fails, and so on: every iteration is
    // one failure episode, and each surviving shape recurs storm/2
    // times. The gate reads the mean over the 200 full hits, so one
    // descheduled replan (a few ms against ~0.1 ms) moves it by a few
    // percent instead of doubling it.
    constexpr std::uint32_t kEpisodes = 202;
    FaultPlan faults;
    for (std::uint32_t k = 0; k < kEpisodes; ++k) {
        const std::uint32_t d = victims[k % 2];
        faults.events.push_back(
            {k, /*fraction=*/0.5, FaultKind::DeviceFail, d});
        faults.events.push_back(
            {k + 1, /*fraction=*/0.0, FaultKind::DeviceJoin, d});
    }

    RecoveryCoordinator coord(hw, meta);
    FaultedRunResult run = coord.run(faults, kEpisodes + 1);
    const RecoveryStats &rec = run.recovery;
    panicIf(rec.episodes != kEpisodes,
            strCat("flap storm: expected ", kEpisodes, " episodes, got ",
                   rec.episodes));

    // Recovery latency: the mean full-hit recovery replan (each
    // shape's first episode is the cold miss that warms the cache).
    double recovery_seconds = 0;
    std::uint64_t full_hits = 0;
    for (const RecoveryOutcome &ep : rec.outcomes) {
        if (!ep.replan.fullHit)
            continue;
        recovery_seconds += ep.replanSeconds;
        ++full_hits;
    }
    panicIf(full_hits == 0,
            "flap storm: recurring shapes never hit the plan cache");
    const double recovery_mean =
        recovery_seconds / static_cast<double>(full_hits);

    // Cold reference: a fresh planner (no shared cache) planning from
    // scratch on the same surviving topologies.
    double cold_seconds = 0;
    std::uint64_t cold_samples = 0;
    for (std::uint32_t d : victims) {
        ClusterTopology surv(topo.withoutDevices({d}).config);
        HardwareModel cold_hw(surv);
        for (std::uint32_t rep = 0; rep < 3; ++rep) {
            ExecutionPlanner cold(cold_hw);
            cold_seconds += cold.plan(meta).planningSeconds;
            ++cold_samples;
        }
    }
    const double cold_mean =
        cold_seconds / static_cast<double>(cold_samples);
    const double speedup = cold_mean / recovery_mean;

    json.record(
        "flap-storm/gpus=256",
        withThreadFields(
            {{"gpus", static_cast<double>(topo.numDevices())},
             {"events", static_cast<double>(rec.episodes)},
             {"recovery_mean_seconds", recovery_mean},
             {"cold_mean_seconds", cold_mean},
             {"speedup", speedup},
             {"full_hits", static_cast<double>(full_hits)},
             {"mean_downtime_seconds",
              rec.totalDowntimeSeconds / rec.episodes}}));
    table.addRow({"flap/256", strCat(rec.episodes),
                  Table::fmt(toMs(recovery_mean), 3),
                  Table::fmt(toMs(cold_mean), 3),
                  Table::fmt(speedup, 1),
                  strCat(full_hits, "/", rec.episodes)});
}

} // namespace

int
main()
{
    std::cout << "=== Failure recovery: elastic replan vs cold plan "
                 "===\n";

    BenchJsonWriter json;
    Table table({"scenario", "episodes", "recovery_mean_ms",
                 "cold_mean_ms", "speedup", "full_hits"});

    runChaos(json, table);
    runFlapStorm(json, table);

    table.printAligned(std::cout);
    std::cout << "\nEvery episode kills an in-use device mid-iteration; "
                 "the coordinator aborts the wave, replans on the "
                 "surviving topology, and recurring shapes are served "
                 "from the shared plan cache.\n";

    const char *override_path = std::getenv("SPINDLE_BENCH_JSON");
    const std::string path =
        override_path != nullptr ? override_path : "BENCH_recovery.json";
    if (json.writeFile(path))
        std::cout << "\nwrote " << path << "\n";
    else
        std::cerr << "\nfailed to write " << path << "\n";
    return 0;
}
