/**
 * @file
 * Chaos suite: randomized fault injection and elastic recovery.
 *
 * The load-bearing guarantee is enforced by the substrate itself —
 * Simulator::occupy() aborts the process if any reservation ever
 * touches a failed device — so every schedule that *completes* here
 * proves no dead device was scheduled. On top of that the suite
 * checks, per recovery episode, that the accepted plan validates,
 * targets exactly the surviving topology, maps back to live devices
 * only, and (on a sampled subset) is byte-identical to a
 * from-scratch plan() of the surviving cluster.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "runtime/recovery.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

/** Byte-level plan comparison (spans, wave shapes, device sets). */
void
expectSamePlanBytes(const ExecutionPlan &a, const ExecutionPlan &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.estimatedSpan),
              std::bit_cast<std::uint64_t>(b.estimatedSpan));
    ASSERT_EQ(a.waves.size(), b.waves.size());
    for (std::size_t w = 0; w < a.waves.size(); ++w) {
        ASSERT_EQ(a.waves[w].entries.size(), b.waves[w].entries.size());
        for (std::size_t i = 0; i < a.waves[w].entries.size(); ++i) {
            const WaveEntry &x = a.waves[w].entries[i];
            const WaveEntry &y = b.waves[w].entries[i];
            EXPECT_EQ(x.metaOp, y.metaOp);
            EXPECT_EQ(x.n, y.n);
            EXPECT_EQ(x.devices, y.devices);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(x.duration),
                      std::bit_cast<std::uint64_t>(y.duration));
        }
    }
}

/** Shared checks on one accepted recovery episode. */
void
checkEpisode(const MetaGraph &meta, const RecoveryOutcome &ep,
             const PlannerOutput &out, const ClusterTopology &surviving,
             const DegradedTopology &deg)
{
    out.plan.validate(meta);
    EXPECT_EQ(out.plan.numDevices, surviving.numDevices());
    ASSERT_EQ(deg.newToOld.size(), surviving.numDevices());
    EXPECT_EQ(ep.survivingDevices, surviving.numDevices());

    // Every placed device maps back to an original id that is alive.
    for (const Wave &w : out.plan.waves) {
        for (const WaveEntry &e : w.entries) {
            for (DeviceId d : e.devices) {
                ASSERT_LT(d, surviving.numDevices());
                const DeviceId orig = deg.newToOld[d];
                EXPECT_FALSE(std::binary_search(ep.cumulativeDead.begin(),
                                                ep.cumulativeDead.end(),
                                                orig))
                    << "plan schedules dead device " << orig;
            }
        }
    }

    // Recovery charged real downtime and recorded the lost work.
    EXPECT_GT(ep.downtimeSeconds, 0);
    EXPECT_GE(ep.downtimeSeconds,
              ep.detectionSeconds + ep.restartSeconds);
    EXPECT_GE(ep.lostWorkSeconds, 0);
    EXPECT_GE(ep.attempts, 1u);
}

TEST(Chaos, HundredSeededFailureSchedulesRecover)
{
    // 64 GPUs (8 islands x 8), 100 seeds, k in {1..8} random device
    // kills folded into one failure batch per seed. One shared plan
    // cache across all seeds: recurring degraded shapes re-hit, the
    // way a long-lived cluster amortizes recovery planning.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(8);
    HardwareModel hw(topo);

    PlanCache cache;
    PlannerOptions popts;
    popts.cache = &cache;

    std::uint32_t episodes = 0;
    double ratio_sum = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        ChaosOptions copts;
        copts.iterations = 1;
        copts.killsPerIteration =
            1 + static_cast<std::uint32_t>(seed % 8);
        copts.seed = seed;
        const FaultPlan faults = ChaosInjector(copts).generate(topo);
        ASSERT_FALSE(faults.empty());

        RecoveryCoordinator coord(hw, meta, popts);
        coord.setEpisodeObserver([&](const RecoveryOutcome &ep,
                                     const PlannerOutput &out,
                                     const ClusterTopology &surviving,
                                     const DegradedTopology &deg) {
            ++episodes;
            checkEpisode(meta, ep, out, surviving, deg);

            // Graceful degradation: losing at most 16 of 64 devices
            // must not crater throughput.
            EXPECT_GT(ep.iterationSecondsBefore, 0);
            EXPECT_GT(ep.iterationSecondsAfter, 0);
            EXPECT_LE(ep.iterationSecondsAfter,
                      ep.iterationSecondsBefore * 3.0);
            ratio_sum +=
                ep.iterationSecondsAfter / ep.iterationSecondsBefore;

            // The recovery replan — cache-assisted or not — is
            // byte-identical to a from-scratch plan() of the
            // surviving cluster.
            HardwareModel fresh_hw(surviving, hw.params());
            ExecutionPlanner fresh(fresh_hw);
            expectSamePlanBytes(fresh.plan(meta).plan, out.plan);
        });

        const FaultedRunResult r = coord.run(faults, 1);
        EXPECT_EQ(r.iterations.size(), 1u);
        EXPECT_GT(r.totalSeconds, 0);
    }

    // Every seed kills devices mid-iteration, so every seed recovers.
    EXPECT_EQ(episodes, 100u);
    // Mean slowdown across all episodes stays mild.
    EXPECT_LE(ratio_sum / episodes, 1.75);
    // The shared cache actually amortized recurring shapes.
    EXPECT_GT(cache.stats().fullHits, 0u);
}

TEST(Chaos, IslandFailuresRecover)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(4);
    HardwareModel hw(topo);

    std::uint32_t episodes = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        ChaosOptions copts;
        copts.iterations = 2;
        copts.killsPerIteration = 1;
        copts.wholeIslands = true;
        copts.seed = seed;
        const FaultPlan faults = ChaosInjector(copts).generate(topo);

        RecoveryCoordinator coord(hw, meta);
        coord.setEpisodeObserver([&](const RecoveryOutcome &ep,
                                     const PlannerOutput &out,
                                     const ClusterTopology &surviving,
                                     const DegradedTopology &deg) {
            ++episodes;
            checkEpisode(meta, ep, out, surviving, deg);
            // Whole islands died: the surviving graph shrank by
            // whole multiples of 8 and dropped the emptied islands.
            EXPECT_EQ(ep.cumulativeDead.size() % 8, 0u);
            EXPECT_EQ(surviving.numIslands() + deg.droppedIslands.size(),
                      topo.numIslands());
        });
        const FaultedRunResult r = coord.run(faults, 2);
        EXPECT_EQ(r.iterations.size(), 2u);
    }
    EXPECT_GT(episodes, 0u);
}

TEST(Chaos, FlappingShapeIsACacheFullHit)
{
    // Kill device 3, let it rejoin, kill it again: the second
    // episode's degraded shape recurs, so its replan is served from
    // the cache (the recovery-latency win bench_failure_recovery
    // measures at scale).
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);

    FaultPlan faults;
    faults.events.push_back({0, 0.5, FaultKind::DeviceFail, 3});
    faults.events.push_back({1, 0.0, FaultKind::DeviceJoin, 3});
    faults.events.push_back({2, 0.5, FaultKind::DeviceFail, 3});

    RecoveryCoordinator coord(hw, meta);
    const FaultedRunResult r = coord.run(faults, 3);
    ASSERT_EQ(r.recovery.episodes, 2u);
    EXPECT_EQ(r.recovery.rejoinedDevices, 1u);
    EXPECT_FALSE(r.recovery.outcomes[0].replan.fullHit);
    EXPECT_TRUE(r.recovery.outcomes[1].replan.fullHit);
    // Same shape -> same plan, byte for byte.
    EXPECT_EQ(r.recovery.outcomes[0].survivingDevices,
              r.recovery.outcomes[1].survivingDevices);
    EXPECT_EQ(r.iterations.size(), 3u);
}

TEST(Chaos, IdleDeviceDeathDoesNotAbortTheIteration)
{
    // The planner's plan occupies the whole 16-GPU cluster, so kill
    // a device *after* the iteration drained instead: the fault
    // fires on a completed iteration and must not halt or charge
    // lost work.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    const PlannerOutput out = planner.plan(meta);
    Engine engine(hw);

    const double makespan = engine.run(meta, out.plan).iterationSeconds;
    const FaultedIterationResult fr = engine.runWithFaults(
        meta, out.plan, {{makespan * 2, {0}}});
    EXPECT_TRUE(fr.completed);
    EXPECT_EQ(fr.failedDevices, DeviceSet{0});
    EXPECT_EQ(fr.lostWorkSeconds, 0);
    EXPECT_EQ(fr.abortedReservations, 0u);
    EXPECT_DOUBLE_EQ(fr.result.iterationSeconds, makespan);
}

TEST(Chaos, MidIterationFailureAbortsAndAccountsLostWork)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    const PlannerOutput out = planner.plan(meta);
    Engine engine(hw);

    const double makespan = engine.run(meta, out.plan).iterationSeconds;
    const double t_f = makespan / 2;
    const FaultedIterationResult fr =
        engine.runWithFaults(meta, out.plan, {{t_f, {0, 1}}});
    ASSERT_FALSE(fr.completed);
    EXPECT_DOUBLE_EQ(fr.failureTime, t_f);
    EXPECT_EQ(fr.failedDevices, (DeviceSet{0, 1}));
    EXPECT_GT(fr.lostWorkSeconds, 0);
    EXPECT_GT(fr.abortedReservations, 0u);
    // The truncated timeline never reaches past the failure.
    EXPECT_LE(fr.result.timeline.makespan(), t_f);
    EXPECT_DOUBLE_EQ(fr.result.iterationSeconds, t_f);
    // Lost work is bounded by 16 devices x the failed span.
    EXPECT_LE(fr.lostWorkSeconds, t_f * topo.numDevices());
}

TEST(Chaos, RecoveryStatsAddUp)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);

    FaultPlan faults;
    faults.events.push_back({0, 0.4, FaultKind::DeviceFail, 5});

    RecoveryCoordinator coord(hw, meta);
    const FaultedRunResult r = coord.run(faults, 2);
    ASSERT_EQ(r.recovery.episodes, 1u);
    const RecoveryOutcome &ep = r.recovery.outcomes[0];
    EXPECT_EQ(ep.iteration, 0u);
    EXPECT_EQ(ep.failedDevices, DeviceSet{5});
    EXPECT_EQ(ep.cumulativeDead, DeviceSet{5});
    EXPECT_EQ(ep.survivingDevices, 15u);
    EXPECT_DOUBLE_EQ(ep.detectionSeconds, kDetectionSeconds);
    // First attempt fit: exactly one restart charge, no backoff.
    EXPECT_EQ(ep.attempts, 1u);
    EXPECT_DOUBLE_EQ(ep.restartSeconds, kRestartSeconds);
    EXPECT_FALSE(ep.usedMemoryFallback);
    EXPECT_TRUE(ep.fit);
    EXPECT_GT(ep.replanSeconds, 0);
    EXPECT_DOUBLE_EQ(ep.downtimeSeconds, ep.detectionSeconds +
                                             ep.restartSeconds +
                                             ep.replanSeconds);
    EXPECT_DOUBLE_EQ(r.recovery.totalDowntimeSeconds,
                     ep.downtimeSeconds);
    EXPECT_GT(ep.lostWorkSeconds, 0);

    // Wall clock covers: the aborted fraction, the stall, the
    // replanned rerun, and the clean second iteration.
    ASSERT_EQ(r.iterations.size(), 2u);
    const double expected = ep.failureTime + ep.downtimeSeconds +
                            r.iterations[0].iterationSeconds +
                            r.iterations[1].iterationSeconds;
    EXPECT_NEAR(r.totalSeconds, expected, 1e-9);
}

TEST(Chaos, CascadeExhaustsAfterReplanAndMemoryFirstRungs)
{
    // Sequential placement has no capacity check, so on 1 MiB devices
    // every candidate oversubscribes memory: the cascade runs both
    // rungs (replan(), then the memory-first plan()), charges one
    // backed-off restart per rung and accepts the last candidate.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    cfg.device.memoryBytes = 1 << 20;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    PlannerOptions popts;
    popts.placement.strategy = PlacementStrategy::Sequential;

    FaultPlan faults;
    for (DeviceId d = 0; d < 4; ++d)
        faults.events.push_back({0, 0.4, FaultKind::DeviceFail, d});

    RecoveryCoordinator coord(hw, meta, popts);
    const FaultedRunResult r = coord.run(faults, 1);
    ASSERT_EQ(r.recovery.episodes, 1u);
    const RecoveryOutcome &ep = r.recovery.outcomes[0];
    EXPECT_EQ(ep.attempts, 2u);
    EXPECT_TRUE(ep.usedMemoryFallback);
    EXPECT_FALSE(ep.fit);
    EXPECT_EQ(r.recovery.degradedAccepts, 1u);
    EXPECT_EQ(r.recovery.memoryFallbacks, 1u);
    // r * (1 + b): one restart per rung, the second backed off once.
    EXPECT_DOUBLE_EQ(ep.restartSeconds,
                     kRestartSeconds * (1 + kRetryBackoff));
    EXPECT_DOUBLE_EQ(ep.downtimeSeconds, kDetectionSeconds +
                                             ep.restartSeconds +
                                             ep.replanSeconds);
}

TEST(Chaos, ChaosInjectorIsDeterministicPerSeed)
{
    ClusterTopology topo = smallCluster(8);
    ChaosOptions copts;
    copts.iterations = 3;
    copts.killsPerIteration = 4;
    copts.seed = 42;
    const FaultPlan a = ChaosInjector(copts).generate(topo);
    const FaultPlan b = ChaosInjector(copts).generate(topo);
    ASSERT_EQ(a.events.size(), b.events.size());
    ASSERT_EQ(a.events.size(), 12u);
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].iteration, b.events[i].iteration);
        EXPECT_EQ(a.events[i].id, b.events[i].id);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_DOUBLE_EQ(a.events[i].fraction, b.events[i].fraction);
    }
    copts.seed = 43;
    const FaultPlan c = ChaosInjector(copts).generate(topo);
    bool differs = false;
    for (std::size_t i = 0; i < c.events.size() && !differs; ++i)
        differs = c.events[i].id != a.events[i].id;
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace spindle
