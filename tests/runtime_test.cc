/**
 * @file
 * Unit tests for runtime/: transmission insertion, the parameter
 * device-group pool, the engine's wave-by-wave execution, and peak
 * memory accounting (§3.6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "common/math_util.h"
#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

struct RuntimeFixture : public ::testing::Test
{
    RuntimeFixture()
        : graph(fig3Workload()), meta(contractGraph(graph)),
          topo(smallCluster(2)), hw(topo), planner(hw),
          out(planner.plan(meta))
    {
    }

    ComputationGraph graph;
    MetaGraph meta;
    ClusterTopology topo;
    HardwareModel hw;
    ExecutionPlanner planner;
    PlannerOutput out;
};

TEST_F(RuntimeFixture, TransmissionsOnlyBetweenDistinctDeviceSets)
{
    CollectiveModel coll(topo);
    auto trans = buildTransmissions(meta, out.plan, coll);
    for (const TransmissionOp &t : trans) {
        EXPECT_NE(t.srcDevices, t.dstDevices);
        EXPECT_GT(t.bytes, 0);
        EXPECT_GE(t.seconds, 0);
        EXPECT_LT(t.srcWave, t.dstWave);
    }
}

TEST_F(RuntimeFixture, TransmissionBytesMatchFlowVolumes)
{
    CollectiveModel coll(topo);
    auto trans = buildTransmissions(meta, out.plan, coll);
    for (const TransmissionOp &t : trans) {
        const MetaOp &m = meta.metaOp(t.dstMeta);
        bool is_edge_volume = false;
        for (const MetaEdge &e : meta.edges())
            if (e.dst == t.dstMeta &&
                nearlyEqual(e.flowBytes, t.bytes))
                is_edge_volume = true;
        bool is_chain_volume = nearlyEqual(m.activationBytes, t.bytes);
        EXPECT_TRUE(is_edge_volume || is_chain_volume);
    }
}

TEST_F(RuntimeFixture, ParamPoolGroupsSharedParamsAcrossTasks)
{
    ParameterGroupPool pool = ParameterGroupPool::build(meta, out.plan);
    EXPECT_FALSE(pool.groups().empty());
    EXPECT_GT(pool.totalSyncBytes(), 0);
    // Shared text/LM parameters are hosted by both tasks, so at
    // least one group must span more than one device.
    bool multi = false;
    for (const ParamGroup &g : pool.groups())
        if (g.devices.size() > 1)
            multi = true;
    EXPECT_TRUE(multi);
}

TEST_F(RuntimeFixture, ParamPoolFusesSubsetGroups)
{
    ParameterGroupPool pool = ParameterGroupPool::build(meta, out.plan);
    // After bucket fusion no group's device set is contained in
    // another group's.
    const auto &groups = pool.groups();
    for (std::size_t i = 0; i < groups.size(); ++i) {
        for (std::size_t j = 0; j < groups.size(); ++j) {
            if (i == j)
                continue;
            EXPECT_FALSE(std::includes(groups[j].devices.begin(),
                                       groups[j].devices.end(),
                                       groups[i].devices.begin(),
                                       groups[i].devices.end()))
                << "group " << i << " fusible into " << j;
        }
    }
}

TEST_F(RuntimeFixture, EngineProducesConsistentBreakdown)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.iterationSeconds, 0);
    EXPECT_GT(r.breakdown.fwdBwd, 0);
    EXPECT_GE(r.breakdown.sync, 0);
    EXPECT_GE(r.breakdown.sendRecv, 0);
    EXPECT_NEAR(r.breakdown.total(), r.iterationSeconds,
                1e-9 * r.iterationSeconds);
}

TEST_F(RuntimeFixture, ForwardAndBackwardDominateIteration)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    // The paper reports fwd+bwd at 80-95% of MT MM iterations.
    EXPECT_GT(r.breakdown.fwdBwd, 0.5 * r.iterationSeconds);
}

TEST_F(RuntimeFixture, EngineIsDeterministic)
{
    Engine engine(hw);
    IterationResult a = engine.run(meta, out.plan);
    IterationResult b = engine.run(meta, out.plan);
    EXPECT_DOUBLE_EQ(a.iterationSeconds, b.iterationSeconds);
    EXPECT_DOUBLE_EQ(a.breakdown.sync, b.breakdown.sync);
    EXPECT_EQ(a.timeline.records().size(), b.timeline.records().size());
}

TEST_F(RuntimeFixture, TimelineCoversComputeAndSync)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.timeline.totalDeviceSeconds(ExecKind::Compute), 0);
    EXPECT_GT(r.timeline.totalDeviceSeconds(ExecKind::Sync), 0);
    EXPECT_GT(r.timeline.totalFlops(),
              meta.base().totalFlopsFwd() * 2.9); // fwd + ~2x bwd
}

TEST_F(RuntimeFixture, EngineMatchesPlanEstimateLoosely)
{
    // The estimated compute span and the simulated fwd+bwd phase
    // should agree within a modest factor (estimation error +
    // transmissions + barriers).
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.breakdown.fwdBwd, 0.6 * out.plan.estimatedSpan);
    EXPECT_LT(r.breakdown.fwdBwd, 1.6 * out.plan.estimatedSpan);
}

TEST_F(RuntimeFixture, PeakMemoryDedupsSharedParameters)
{
    MemoryModel mem;
    auto peak = peakMemoryPerDevice(meta, out.plan, hw, mem);
    ASSERT_EQ(peak.size(), topo.numDevices());
    for (double b : peak)
        EXPECT_GE(b, 0);
    // Total hosted parameter state cannot exceed a full replica per
    // device (the decoupled upper bound).
    double replica =
        graph.totalUniqueParamBytes() * (1 + kOptimizerFactor);
    for (double b : peak)
        EXPECT_LE(b, replica);
}

TEST_F(RuntimeFixture, EnginePhasesPartitionTheRunWallClock)
{
    // The engine attributes its own wall-clock: every phase is
    // non-negative, and together they take no longer than the call.
    Engine engine(hw);
    for (bool with_arrival : {false, true}) {
        SCOPED_TRACE(with_arrival ? "with an arrival" : "base plan only");
        std::vector<TaskArrival> arrivals;
        if (with_arrival)
            arrivals.push_back({0.0, &meta, &out.plan});
        const auto start = std::chrono::steady_clock::now();
        IterationResult r = with_arrival
                                 ? engine.runDynamic(meta, out.plan, arrivals)
                                 : engine.run(meta, out.plan);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        const EnginePhaseSeconds &p = r.phaseSeconds;
        EXPECT_GE(p.transmissions, 0);
        EXPECT_GE(p.paramGroups, 0);
        EXPECT_GE(p.memory, 0);
        EXPECT_GE(p.dispatchSync, 0);
        EXPECT_LE(p.total(), wall);
    }
}

TEST_F(RuntimeFixture, BreakdownIsConsistent)
{
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.iterationSeconds, 0);
    EXPECT_GT(r.breakdown.fwdBwd, 0);
    EXPECT_GE(r.breakdown.sync, 0);
    EXPECT_GE(r.breakdown.sendRecv, 0);
    EXPECT_NEAR(r.breakdown.total(), r.iterationSeconds,
                1e-9 * r.iterationSeconds);
}

TEST_F(RuntimeFixture, OversubscriptionIsReportedInTheResult)
{
    // The planned plan fits the cluster it was placed on.
    Engine engine(hw);
    IterationResult fits = engine.run(meta, out.plan);
    EXPECT_FALSE(fits.oversubscribed.has_value());

    // The same device assignment on a cluster with half the HBM its
    // busiest device needs: the result names that device.
    const auto busiest = static_cast<DeviceId>(
        std::max_element(fits.peakMemoryBytes.begin(),
                         fits.peakMemoryBytes.end()) -
        fits.peakMemoryBytes.begin());
    ClusterConfig small_cfg = topo.config();
    small_cfg.device.memoryBytes = fits.peakMemoryBytes[busiest] / 2;
    ClusterTopology small_topo(small_cfg);
    HardwareModel small_hw(small_topo);
    IterationResult over = Engine(small_hw).run(meta, out.plan);
    ASSERT_TRUE(over.oversubscribed.has_value());
    EXPECT_EQ(over.oversubscribed->device, busiest);
    EXPECT_EQ(over.oversubscribed->peakBytes,
              over.peakMemoryBytes[busiest]);
    EXPECT_EQ(over.oversubscribed->capacityBytes,
              small_cfg.device.memoryBytes);
    EXPECT_GT(over.oversubscribed->peakBytes,
              over.oversubscribed->capacityBytes);
}

TEST(Runtime, EmptyPlanYieldsZeroIteration)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    Engine engine(hw);
    ExecutionPlan plan;
    plan.numDevices = 8;
    IterationResult r = engine.run(meta, plan);
    EXPECT_DOUBLE_EQ(r.iterationSeconds, 0.0);
}

} // namespace
} // namespace spindle
