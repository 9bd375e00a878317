/**
 * @file
 * Unit tests for the wavefront scheduler (§3.4, Alg. 1): wave
 * crafting, capacity, resource extension, time-span alignment, and
 * MetaLevel merging.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cost/estimator.h"
#include "planner/planner.h"
#include "planner/resource_allocator.h"
#include "planner/wavefront_scheduler.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

struct SchedulerFixture : public ::testing::Test
{
    SchedulerFixture()
        : graph(fig3Workload()), meta(contractGraph(graph)),
          topo(smallCluster(2)), hw(topo), estimator(hw),
          curves(estimator.estimateAll(meta, topo.numDevices())),
          alloc(meta, curves, topo.numDevices()),
          sched(meta, curves, topo.numDevices())
    {
    }

    ExecutionPlan
    makePlan()
    {
        ExecutionPlan plan;
        plan.numDevices = topo.numDevices();
        plan.allocations = alloc.allocateAll();
        plan.waves = sched.scheduleAll(plan.allocations);
        return plan;
    }

    ComputationGraph graph;
    MetaGraph meta;
    ClusterTopology topo;
    HardwareModel hw;
    ScalabilityEstimator estimator;
    std::vector<ScalingCurve> curves;
    ResourceAllocator alloc;
    WavefrontScheduler sched;
};

TEST_F(SchedulerFixture, ScheduleSatisfiesAllInvariants)
{
    ExecutionPlan plan = makePlan();
    plan.validate(meta); // panics on violation
    EXPECT_FALSE(plan.waves.empty());
}

TEST_F(SchedulerFixture, CapacityNeverExceeded)
{
    ExecutionPlan plan = makePlan();
    for (const Wave &w : plan.waves)
        EXPECT_LE(w.devicesAllocated(), topo.numDevices());
}

TEST_F(SchedulerFixture, WaveCountBoundedByTuples)
{
    // Each wave fully consumes at least one ASL-tuple, and each
    // MetaOp contributes at most two tuples (paper's complexity
    // note: #waves <= 2 x #MetaOps per level).
    ExecutionPlan plan = makePlan();
    std::size_t tuples = 0;
    for (const LevelAllocation &l : plan.allocations)
        for (const MetaOpAllocation &p : l.plans)
            tuples += p.tuples.size();
    EXPECT_LE(plan.waves.size(), tuples);
}

TEST_F(SchedulerFixture, WaveDurationIsMaxEntryDuration)
{
    ExecutionPlan plan = makePlan();
    for (const Wave &w : plan.waves) {
        double max_entry = 0;
        for (const WaveEntry &e : w.entries)
            max_entry = std::max(max_entry, e.duration);
        EXPECT_DOUBLE_EQ(w.duration, max_entry);
    }
}

TEST_F(SchedulerFixture, EntryDurationsMatchCurves)
{
    ExecutionPlan plan = makePlan();
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            double expect = curves[e.metaOp].timeAt(e.n) *
                            static_cast<double>(e.numOps);
            EXPECT_NEAR(e.duration, expect, 1e-12);
        }
    }
}

TEST_F(SchedulerFixture, WavesOrderedByLevelWithContiguousStarts)
{
    ExecutionPlan plan = makePlan();
    double t = 0;
    std::int32_t level = 0;
    for (const Wave &w : plan.waves) {
        EXPECT_GE(w.level, level);
        level = w.level;
        EXPECT_NEAR(w.start, t, 1e-9);
        t += w.duration;
    }
}

TEST_F(SchedulerFixture, ResourceExtensionFillsIdleDevices)
{
    // With extension on, the tail waves of a level use more devices
    // than the raw allocation plan would.
    SchedulerOptions no_ext;
    no_ext.extendResources = false;
    WavefrontScheduler plain(meta, curves, topo.numDevices(), no_ext);

    auto allocs = alloc.allocateAll();
    std::vector<Wave> with_ext = sched.scheduleAll(allocs);
    std::vector<Wave> without = plain.scheduleAll(allocs);

    auto span = [](const std::vector<Wave> &waves) {
        return waves.back().start + waves.back().duration;
    };
    EXPECT_LE(span(with_ext), span(without) * (1 + 1e-9));

    std::uint32_t used_ext = 0, used_plain = 0;
    for (const Wave &w : with_ext)
        used_ext += w.devicesAllocated();
    for (const Wave &w : without)
        used_plain += w.devicesAllocated();
    EXPECT_GE(used_ext, used_plain);
}

TEST_F(SchedulerFixture, ExtendedAllocationsStayValid)
{
    ExecutionPlan plan = makePlan();
    for (const Wave &w : plan.waves)
        for (const WaveEntry &e : w.entries)
            EXPECT_TRUE(curves[e.metaOp].isValid(e.n));
}

TEST_F(SchedulerFixture, DeterministicAcrossRuns)
{
    ExecutionPlan a = makePlan();
    ExecutionPlan b = makePlan();
    ASSERT_EQ(a.waves.size(), b.waves.size());
    for (std::size_t i = 0; i < a.waves.size(); ++i) {
        ASSERT_EQ(a.waves[i].entries.size(), b.waves[i].entries.size());
        for (std::size_t j = 0; j < a.waves[i].entries.size(); ++j) {
            EXPECT_EQ(a.waves[i].entries[j].metaOp,
                      b.waves[i].entries[j].metaOp);
            EXPECT_EQ(a.waves[i].entries[j].n, b.waves[i].entries[j].n);
            EXPECT_EQ(a.waves[i].entries[j].numOps,
                      b.waves[i].entries[j].numOps);
        }
    }
}

TEST_F(SchedulerFixture, LevelsDoNotInterleave)
{
    ExecutionPlan plan = makePlan();
    // All level-0 waves precede all level-1 waves (merging
    // MetaLevels reinstates dependencies at wave boundaries).
    bool seen_level1 = false;
    for (const Wave &w : plan.waves) {
        if (w.level == 1)
            seen_level1 = true;
        if (seen_level1) {
            EXPECT_EQ(w.level, 1);
        }
    }
}

TEST_F(SchedulerFixture, EmitsReadinessEdges)
{
    // Readiness is derived once, when the planner finalizes the
    // placed plan: scheduleAll() leaves it empty, and the finalized
    // plan carries the edges the event-driven runtime dispatches on —
    // same-stream program order at minimum (all waves share stream 0
    // here), plus data producers and device-group predecessors.
    EXPECT_FALSE(makePlan().hasReadiness());
    const ExecutionPlan plan = ExecutionPlanner(hw).plan(meta).plan;
    ASSERT_FALSE(plan.waves.empty());
    for (std::size_t i = 1; i < plan.waves.size(); ++i) {
        const auto &preds = plan.waves[i].predecessors;
        EXPECT_TRUE(std::binary_search(preds.begin(), preds.end(),
                                       static_cast<std::int32_t>(i - 1)))
            << "wave " << i << " misses its program-order edge";
    }
}

TEST_F(SchedulerFixture, EmptyLevelAllocationPanics)
{
    // An empty level used to dereference alloc.metaOps.front() (UB);
    // it must now die with a diagnostic instead.
    LevelAllocation empty;
    std::vector<Wave> waves;
    EXPECT_DEATH(sched.scheduleLevel(empty, 0.0, waves),
                 "empty level allocation");
}

TEST_F(SchedulerFixture, MisalignedPlansPanic)
{
    LevelAllocation bad;
    bad.metaOps = {0, 1};
    bad.plans.resize(1);
    std::vector<Wave> waves;
    EXPECT_DEATH(sched.scheduleLevel(bad, 0.0, waves),
                 "plans misaligned");
}

TEST(Scheduler, NearZeroCurveTimesStayDefined)
{
    // A curve with denormal per-op times drives t_wave / per_op
    // toward infinity; waveSliceOps() must keep slicing defined and
    // every wave covering at least one operator.
    ComputationGraph g;
    OpId prev = -1;
    for (int i = 0; i < 6; ++i) {
        OperatorDesc op;
        op.type = OpType::LM;
        op.input = {48, 128, 1024};
        op.flopsFwd = 5e10;
        op.paramBytes = 1e6;
        op.activationBytes = 1e6;
        OpId id = g.addOperator(std::move(op));
        if (prev >= 0)
            g.addEdge(prev, id);
        prev = id;
    }
    g.finalize();
    MetaGraph meta = contractGraph(g);
    ASSERT_EQ(meta.numMetaOps(), 1u);

    std::vector<ScalingCurve> denormal;
    denormal.emplace_back(std::vector<std::uint32_t>{1, 2, 4},
                          std::vector<double>{4e-320, 2e-320, 1e-320});
    WavefrontScheduler sched(meta, denormal, 4);

    LevelAllocation alloc;
    alloc.metaOps = {0};
    MetaOpAllocation plan;
    plan.metaOp = 0;
    plan.tuples = {{4, -1, 2}, {2, -1, 4}};
    alloc.plans = {plan};

    std::vector<Wave> waves;
    sched.scheduleLevel(alloc, 0.0, waves);
    std::int64_t ops = 0;
    for (const Wave &w : waves) {
        for (const WaveEntry &e : w.entries) {
            EXPECT_GE(e.numOps, 1);
            ops += e.numOps;
        }
    }
    EXPECT_EQ(ops, 6);
}

TEST(Scheduler, SingleMetaOpProducesSequentialWaves)
{
    // One MetaOp with a two-tuple allocation becomes at most two
    // waves, never concurrent with itself (Eq. 6).
    ComputationGraph g;
    OpId prev = -1;
    for (int i = 0; i < 10; ++i) {
        OperatorDesc op;
        op.type = OpType::LM;
        op.input = {48, 128, 1024};
        op.flopsFwd = 5e10;
        op.paramBytes = 1e6;
        op.activationBytes = 1e6;
        OpId id = g.addOperator(std::move(op));
        if (prev >= 0)
            g.addEdge(prev, id);
        prev = id;
    }
    g.finalize();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = testutil::smallCluster(1);
    HardwareModel hw(topo);
    ScalabilityEstimator est(hw);
    auto curves = est.estimateAll(meta, 8);
    ResourceAllocator alloc(meta, curves, 8);
    WavefrontScheduler sched(meta, curves, 8);
    auto allocs = alloc.allocateAll();
    std::vector<Wave> waves = sched.scheduleAll(allocs);
    EXPECT_LE(waves.size(), 2u);
    std::int64_t ops = 0;
    for (const Wave &w : waves) {
        ASSERT_EQ(w.entries.size(), 1u);
        ops += w.entries[0].numOps;
    }
    EXPECT_EQ(ops, 10);
}

} // namespace
} // namespace spindle
