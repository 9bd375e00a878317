/**
 * @file
 * Unit tests for baselines/: the plan-building strategies of every
 * competitor system (§5.1, Tab. 1a) and the shared System driver.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

struct BaselineFixture : public ::testing::Test
{
    BaselineFixture()
        : graph(fig3Workload()), meta(contractGraph(graph)),
          topo(smallCluster(2)), hw(topo)
    {
    }

    ComputationGraph graph;
    MetaGraph meta;
    ClusterTopology topo;
    HardwareModel hw;
};

TEST_F(BaselineFixture, SequentialPlanIsOneWavePerMetaOp)
{
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    ExecutionPlan plan = megatron.buildPlan(meta);
    plan.validate(meta);
    EXPECT_EQ(plan.waves.size(), meta.numMetaOps());
    for (const Wave &w : plan.waves)
        EXPECT_EQ(w.entries.size(), 1u);
}

TEST_F(BaselineFixture, MegatronUsesMaximalValidAllocation)
{
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    ExecutionPlan plan = megatron.buildPlan(meta);
    for (const Wave &w : plan.waves) {
        const WaveEntry &e = w.entries[0];
        auto valid =
            hw.validAllocations(meta.metaOp(e.metaOp), topo.numDevices());
        EXPECT_EQ(e.n, valid.back());
    }
}

TEST_F(BaselineFixture, DeepSpeedUsesPureDataParallelism)
{
    SequentialSystem ds(hw, SequentialMode::DeepSpeed);
    ExecutionPlan plan = ds.buildPlan(meta);
    for (const Wave &w : plan.waves) {
        const WaveEntry &e = w.entries[0];
        const MetaOp &m = meta.metaOp(e.metaOp);
        EXPECT_EQ(m.input.batch % e.n, 0)
            << "ZeRO DP degree must divide the batch";
    }
}

TEST_F(BaselineFixture, SpindleSeqMatchesMegatronPlanShape)
{
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    SequentialSystem seq(hw, SequentialMode::SpindleSeq);
    ExecutionPlan a = megatron.buildPlan(meta);
    ExecutionPlan b = seq.buildPlan(meta);
    ASSERT_EQ(a.waves.size(), b.waves.size());
    EXPECT_EQ(seq.name(), "Spindle-Seq");
}

TEST_F(BaselineFixture, TasksExecuteBackToBackInSequentialPlans)
{
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    ExecutionPlan plan = megatron.buildPlan(meta);
    // Task ids along the wave sequence are non-decreasing.
    std::int32_t task = 0;
    for (const Wave &w : plan.waves) {
        std::int32_t t = meta.metaOp(w.entries[0].metaOp).taskId;
        EXPECT_GE(t, task);
        task = t;
    }
}

TEST_F(BaselineFixture, DistMMPlanValidates)
{
    DistMMMTSystem distmm(hw);
    ExecutionPlan plan = distmm.buildPlan(meta);
    plan.validate(meta);
    // Intra-task awareness: at least one wave runs two encoder
    // MetaOps of the same task concurrently.
    bool concurrent_towers = false;
    for (const Wave &w : plan.waves)
        if (w.entries.size() > 1)
            concurrent_towers = true;
    EXPECT_TRUE(concurrent_towers);
}

TEST_F(BaselineFixture, OptimusAllocationsAreFeasible)
{
    SpindleOptimusSystem optimus(hw);
    ScalabilityEstimator est(hw);
    auto curves = est.estimateAll(meta, topo.numDevices());
    auto alloc = optimus.allocateTasks(meta, curves);
    std::uint32_t sum = 0;
    for (const auto &[task, n] : alloc) {
        EXPECT_GE(n, 1u);
        sum += n;
    }
    EXPECT_LE(sum, topo.numDevices());
    EXPECT_EQ(alloc.size(), 2u); // two tasks
}

TEST_F(BaselineFixture, OptimusFavorsTheHeavierTask)
{
    SpindleOptimusSystem optimus(hw);
    ScalabilityEstimator est(hw);
    auto curves = est.estimateAll(meta, topo.numDevices());
    auto alloc = optimus.allocateTasks(meta, curves);
    // Task 1 carries the vision encoder and is heavier.
    EXPECT_GE(alloc.at(1), alloc.at(0));
}

TEST_F(BaselineFixture, OptimusPlanUsesDisjointTaskBlocks)
{
    SpindleOptimusSystem optimus(hw);
    ExecutionPlan plan = optimus.buildPlan(meta);
    plan.validate(meta);
    DeviceSet task0, task1;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            DeviceSet &mine =
                meta.metaOp(e.metaOp).taskId == 0 ? task0 : task1;
            mine = unionOf(mine, e.devices);
        }
    }
    EXPECT_FALSE(intersects(task0, task1));
}

TEST_F(BaselineFixture, OptimusStreamsPerTask)
{
    SpindleOptimusSystem optimus(hw);
    ExecutionPlan plan = optimus.buildPlan(meta);
    std::set<std::int32_t> streams;
    for (const Wave &w : plan.waves)
        streams.insert(w.stream);
    EXPECT_EQ(streams.size(), 2u);
}

TEST(Optimus, FoldsTasksWhenTheyOutnumberDevices)
{
    ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    MetaGraph meta = contractGraph(g);
    ClusterConfig cfg;
    cfg.numNodes = 1;
    cfg.gpusPerNode = 4; // 10 tasks > 4 devices
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);
    SpindleOptimusSystem optimus(hw);
    auto groups = optimus.groupTasks(meta);
    EXPECT_LE(groups.size(), 4u);
    std::size_t ops = 0;
    for (const auto &[id, ids] : groups)
        ops += ids.size();
    EXPECT_EQ(ops, meta.numMetaOps());
}

TEST_F(BaselineFixture, AllSystemsRunAndReportPositiveTimes)
{
    std::vector<std::unique_ptr<System>> systems;
    systems.push_back(std::make_unique<SpindleSystem>(hw));
    systems.push_back(std::make_unique<SpindleOptimusSystem>(hw));
    systems.push_back(std::make_unique<DistMMMTSystem>(hw));
    systems.push_back(
        std::make_unique<SequentialSystem>(hw, SequentialMode::Megatron));
    systems.push_back(
        std::make_unique<SequentialSystem>(hw, SequentialMode::DeepSpeed));
    for (const auto &sys : systems) {
        SystemResult r = sys->runIteration(meta);
        EXPECT_GT(r.iterationSeconds, 0) << r.system;
        EXPECT_EQ(r.peakMemoryBytes.size(), topo.numDevices());
        EXPECT_FALSE(r.system.empty());
    }
}

TEST_F(BaselineFixture, SpindleWithoutPlacementIsNamedDistinctly)
{
    SpindleWithoutPlacement ablation(hw);
    EXPECT_EQ(ablation.name(), "Spindle w/o DP");
    SpindleSystem full(hw);
    EXPECT_EQ(full.name(), "Spindle");
}

TEST(AssignConsecutiveDevices, CursorWrapsAndRunsAcrossWaves)
{
    // 8 devices, entries of 3, 3 | 3: the cursor runs on from wave 0
    // into wave 1 and wraps there, so a cursor restarted per wave
    // would give wave 1 {0,1,2}.
    ExecutionPlan plan;
    plan.numDevices = 8;
    plan.waves.resize(2);
    plan.waves[0].entries.resize(2);
    plan.waves[1].entries.resize(1);
    for (Wave &w : plan.waves)
        for (WaveEntry &e : w.entries) {
            e.n = 3;
            e.devices = {7}; // replaced, not appended to
        }
    assignConsecutiveDevices(plan);
    EXPECT_EQ(plan.waves[0].entries[0].devices, (DeviceSet{0, 1, 2}));
    EXPECT_EQ(plan.waves[0].entries[1].devices, (DeviceSet{3, 4, 5}));
    EXPECT_EQ(plan.waves[1].entries[0].devices, (DeviceSet{0, 6, 7}));
}

TEST_F(BaselineFixture, SpindleWithoutPlacementKeepsSpindlesWaves)
{
    // The ablation changes the devices only: its plan is Spindle's
    // with assignConsecutiveDevices() applied and readiness re-derived.
    const ExecutionPlan spindle = SpindleSystem(hw).buildPlan(meta);
    ExecutionPlan want = spindle;
    assignConsecutiveDevices(want);
    want.annotateReadiness(meta);
    const ExecutionPlan got = SpindleWithoutPlacement(hw).buildPlan(meta);
    got.validate(meta);

    EXPECT_EQ(got.numDevices, want.numDevices);
    EXPECT_EQ(got.estimatedSpan, want.estimatedSpan);
    EXPECT_EQ(got.theoreticalOptimum, want.theoreticalOptimum);
    EXPECT_EQ(got.allocations.size(), want.allocations.size());
    ASSERT_EQ(got.waves.size(), want.waves.size());
    std::size_t moved = 0;
    for (std::size_t w = 0; w < got.waves.size(); ++w) {
        SCOPED_TRACE(strCat("wave ", w));
        const Wave &a = got.waves[w];
        const Wave &b = want.waves[w];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.level, b.level);
        EXPECT_EQ(a.stream, b.stream);
        EXPECT_EQ(a.predecessors, b.predecessors);
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.duration, b.duration);
        ASSERT_EQ(a.entries.size(), b.entries.size());
        for (std::size_t i = 0; i < a.entries.size(); ++i) {
            EXPECT_EQ(a.entries[i].metaOp, b.entries[i].metaOp);
            EXPECT_EQ(a.entries[i].n, b.entries[i].n);
            EXPECT_EQ(a.entries[i].opBegin, b.entries[i].opBegin);
            EXPECT_EQ(a.entries[i].numOps, b.entries[i].numOps);
            EXPECT_EQ(a.entries[i].duration, b.entries[i].duration);
            EXPECT_EQ(a.entries[i].devices, b.entries[i].devices);
            moved += a.entries[i].devices !=
                     spindle.waves[w].entries[i].devices;
        }
    }
    // Spindle's placement is not consecutive on this workload, so the
    // check above compared reassigned devices, not Spindle's own.
    EXPECT_GT(moved, 0u);
}

TEST_F(BaselineFixture, TheoreticalOptimumOnlyFromSpindle)
{
    SpindleSystem spindle(hw);
    SequentialSystem ds(hw, SequentialMode::DeepSpeed);
    EXPECT_GT(spindle.runIteration(meta).theoreticalOptimum, 0);
    EXPECT_DOUBLE_EQ(ds.runIteration(meta).theoreticalOptimum, 0);
}

TEST_F(BaselineFixture, ResultCarriesOversubscription)
{
    // DeepSpeed's plan ignores device memory, so with HBM below its
    // own peak the system result must carry the engine's report.
    const SystemResult fits =
        SequentialSystem(hw, SequentialMode::DeepSpeed).runIteration(meta);
    EXPECT_FALSE(fits.oversubscribed.has_value());

    ClusterConfig cfg = topo.config();
    cfg.device.memoryBytes = *std::max_element(fits.peakMemoryBytes.begin(),
                                               fits.peakMemoryBytes.end()) /
                             2;
    ClusterTopology small(cfg);
    HardwareModel small_hw(small);
    const SystemResult over = SequentialSystem(small_hw,
                                               SequentialMode::DeepSpeed)
                                  .runIteration(meta);
    ASSERT_TRUE(over.oversubscribed.has_value());
    EXPECT_EQ(over.oversubscribed->peakBytes,
              *std::max_element(over.peakMemoryBytes.begin(),
                                over.peakMemoryBytes.end()));
    EXPECT_EQ(over.oversubscribed->capacityBytes, cfg.device.memoryBytes);
}

TEST(SpindleSystemMemory, EngineChargesThePlannersMemoryRegime)
{
    // Tab. 2: QWen-VAL 70B only fits 80 GB devices with ZeRO-3
    // parameter sharding. The plan is placed under that regime, so
    // the engine must charge it under the same one.
    ComputationGraph graph =
        buildQwenVal({.size = QwenValConfig::Size::B70, .batch = 128});
    MetaGraph meta = contractGraph(graph);
    ClusterTopology topo = smallCluster(32); // 256 GPUs
    HardwareModel hw(topo);
    PlannerOptions options;
    options.memory.zeroShardParams = true;
    SpindleSystem spindle(hw, options);
    EXPECT_TRUE(spindle.memoryParams().zeroShardParams);

    const SystemResult r = spindle.runIteration(meta);
    ASSERT_EQ(r.peakMemoryBytes.size(), topo.numDevices());
    EXPECT_LE(*std::max_element(r.peakMemoryBytes.begin(),
                                r.peakMemoryBytes.end()),
              topo.device().memoryBytes);
}

} // namespace
} // namespace spindle
