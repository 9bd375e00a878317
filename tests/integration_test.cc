/**
 * @file
 * Integration tests: the paper's headline comparative claims, as
 * shape assertions over the full system stack (Fig. 8, 10, 11, 14,
 * 15, 16 and Appendix F-H).
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace spindle {
namespace {

using testutil::smallCluster;

TEST(Integration, SpindleBeatsSotaOnMultiTaskClip)
{
    // Fig. 8: Spindle vs DeepSpeed on 7-task CLIP across clusters.
    ComputationGraph g = buildMultitaskClip({.numTasks = 7});
    for (std::uint32_t nodes : {1u, 2u, 4u}) {
        ClusterTopology topo = smallCluster(nodes);
        HardwareModel hw(topo);
        MetaGraph meta = contractGraph(g);
        SpindleSystem spindle(hw);
        SequentialSystem ds(hw, SequentialMode::DeepSpeed);
        double ts = spindle.runIteration(meta).iterationSeconds;
        double td = ds.runIteration(meta).iterationSeconds;
        EXPECT_GT(td / ts, 1.1) << nodes << " nodes";
    }
}

TEST(Integration, SpeedupGrowsWithTaskCount)
{
    // Fig. 8 discussion: Spindle excels with more tasks.
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    auto speedup = [&](std::uint32_t tasks) {
        ComputationGraph g = buildMultitaskClip({.numTasks = tasks});
        MetaGraph meta = contractGraph(g);
        SpindleSystem spindle(hw);
        SequentialSystem ds(hw, SequentialMode::DeepSpeed);
        return ds.runIteration(meta).iterationSeconds /
               spindle.runIteration(meta).iterationSeconds;
    };
    EXPECT_GT(speedup(10), speedup(4) * 0.98);
}

TEST(Integration, SpindleBeatsTaskLevelAndSingleTaskStrategies)
{
    // Fig. 8: Spindle >= DistMM-MT and >= Megatron on MT workloads.
    ComputationGraph g = buildOfasys({.numTasks = 7});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SpindleSystem spindle(hw);
    DistMMMTSystem distmm(hw);
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    double ts = spindle.runIteration(meta).iterationSeconds;
    EXPECT_LT(ts, distmm.runIteration(meta).iterationSeconds);
    EXPECT_LT(ts, megatron.runIteration(meta).iterationSeconds);
}

TEST(Integration, DistMMWeakOnOfasys)
{
    // §5.2: OFASys tasks are dominated by one modality (lightweight
    // text adaptor), so DistMM-MT's intra-task parallelization gains
    // little over plain sequential execution.
    ComputationGraph g = buildOfasys({.numTasks = 7});
    ClusterTopology topo = smallCluster(4);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    DistMMMTSystem distmm(hw);
    SequentialSystem ds(hw, SequentialMode::DeepSpeed);
    double ratio = ds.runIteration(meta).iterationSeconds /
                   distmm.runIteration(meta).iterationSeconds;
    EXPECT_LT(ratio, 1.15);
}

TEST(Integration, SingleTaskSpindleMatchesDistMM)
{
    // Appendix F / Fig. 14: on single-task MM workloads DistMM-MT is
    // close to Spindle (both exploit intra-task heterogeneity).
    ComputationGraph g = buildMultitaskClip({.numTasks = 1});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SpindleSystem spindle(hw);
    DistMMMTSystem distmm(hw);
    double ts = spindle.runIteration(meta).iterationSeconds;
    double td = distmm.runIteration(meta).iterationSeconds;
    EXPECT_NEAR(td / ts, 1.0, 0.25);
}

TEST(Integration, SpindleSeqMatchesSotaImplementations)
{
    // Appendix H / Fig. 16: the decoupled strategy on Spindle's
    // stack performs like Megatron-LM / DeepSpeed.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SequentialSystem seq(hw, SequentialMode::SpindleSeq);
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    double a = seq.runIteration(meta).iterationSeconds;
    double b = megatron.runIteration(meta).iterationSeconds;
    EXPECT_NEAR(a / b, 1.0, 0.1);
}

TEST(Integration, PlacementAblationInflatesTransmission)
{
    // Fig. 10 ablation: sequential placement multiplies inter-wave
    // send/recv time severalfold.
    ComputationGraph g = buildMultitaskClip({.numTasks = 7});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SpindleSystem spindle(hw);
    SpindleWithoutPlacement ablation(hw);
    SystemResult with_dp = spindle.runIteration(meta);
    SystemResult without = ablation.runIteration(meta);
    EXPECT_GT(without.breakdown.sendRecv,
              1.5 * with_dp.breakdown.sendRecv);
}

TEST(Integration, SpindleMemoryLowerThanDecoupledBaselines)
{
    // Fig. 15: selective parameter storage keeps Spindle's peak
    // memory below whole-cluster replication.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SpindleSystem spindle(hw);
    SequentialSystem megatron(hw, SequentialMode::Megatron);
    auto peak = [](const SystemResult &r) {
        double mx = 0;
        for (double b : r.peakMemoryBytes)
            mx = std::max(mx, b);
        return mx;
    };
    EXPECT_LT(peak(spindle.runIteration(meta)),
              peak(megatron.runIteration(meta)));
}

TEST(Integration, IterationTimeNearTheoreticalOptimum)
{
    // Fig. 11: the compute span of the executed plan stays within a
    // modest factor of C~*.
    ComputationGraph g = buildMultitaskClip({.numTasks = 7});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SpindleSystem spindle(hw);
    SystemResult r = spindle.runIteration(meta);
    ASSERT_GT(r.theoreticalOptimum, 0);
    EXPECT_LT(r.breakdown.fwdBwd / r.theoreticalOptimum, 1.4);
}

TEST(Integration, ReplanningAdaptsToDynamicTaskSets)
{
    // Appendix D: when the task set changes, a fresh plan for the
    // new set beats reusing the sequential strategy.
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    SpindleSystem spindle(hw);
    SequentialSystem ds(hw, SequentialMode::DeepSpeed);
    double spindle_total = 0, ds_total = 0;
    for (std::uint32_t tasks : {4u, 7u, 10u, 7u}) {
        ComputationGraph g = buildMultitaskClip({.numTasks = tasks});
        MetaGraph meta = contractGraph(g);
        spindle_total += spindle.runIteration(meta).iterationSeconds;
        ds_total += ds.runIteration(meta).iterationSeconds;
    }
    EXPECT_GT(ds_total / spindle_total, 1.2);
}

TEST(Integration, WholeStackDeterminism)
{
    ComputationGraph g = buildOfasys({.numTasks = 4});
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    SpindleSystem spindle(hw);
    SystemResult a = spindle.runIteration(meta);
    SystemResult b = spindle.runIteration(meta);
    EXPECT_DOUBLE_EQ(a.iterationSeconds, b.iterationSeconds);
    EXPECT_EQ(a.peakMemoryBytes, b.peakMemoryBytes);
}

} // namespace
} // namespace spindle
