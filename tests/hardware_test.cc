/**
 * @file
 * Unit tests for hardware/: device-set utilities, island topology,
 * collective cost model, and the ground-truth operator oracle.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/math_util.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::plainOp;
using testutil::smallCluster;

TEST(DeviceSet, CanonicalizationAndPredicates)
{
    DeviceSet s{3, 1, 2, 2};
    EXPECT_FALSE(isCanonicalDeviceSet(s));
    canonicalize(s);
    EXPECT_EQ(s, (DeviceSet{1, 2, 3}));
    EXPECT_TRUE(isCanonicalDeviceSet(s));
    EXPECT_EQ(deviceSetStr(s), "{1,2,3}");
}

TEST(DeviceSet, IntersectsAndUnion)
{
    DeviceSet a{0, 2, 4}, b{1, 3, 5}, c{4, 5};
    EXPECT_FALSE(intersects(a, b));
    EXPECT_TRUE(intersects(a, c));
    EXPECT_EQ(unionOf(a, c), (DeviceSet{0, 2, 4, 5}));
}

TEST(Topology, IslandStructure)
{
    ClusterTopology topo = smallCluster(2);
    EXPECT_EQ(topo.numDevices(), 16u);
    EXPECT_EQ(topo.numIslands(), 2u);
    EXPECT_EQ(topo.islandOf(0), 0u);
    EXPECT_EQ(topo.islandOf(7), 0u);
    EXPECT_EQ(topo.islandOf(8), 1u);
    EXPECT_TRUE(topo.sameIsland(0, 7));
    EXPECT_FALSE(topo.sameIsland(7, 8));
    EXPECT_EQ(topo.islandDevices(1),
              (DeviceSet{8, 9, 10, 11, 12, 13, 14, 15}));
    EXPECT_EQ(topo.allDevices().size(), 16u);
}

TEST(Topology, WithinOneIsland)
{
    ClusterTopology topo = smallCluster(2);
    EXPECT_TRUE(topo.withinOneIsland({0, 3, 7}));
    EXPECT_FALSE(topo.withinOneIsland({7, 8}));
}

TEST(Topology, ExplicitIslandGraph)
{
    // Heterogeneous sizes with permuted, non-contiguous membership:
    // island 0 owns the even ids plus 9, island 1 the rest.
    ClusterConfig cfg;
    cfg.islands.resize(2);
    cfg.islands[0].devices = {0, 2, 4, 6, 8, 9};
    cfg.islands[1].devices = {1, 3, 5, 7};
    ClusterTopology topo(cfg);

    EXPECT_EQ(topo.numDevices(), 10u);
    EXPECT_EQ(topo.numIslands(), 2u);
    EXPECT_EQ(topo.islandOf(4), 0u);
    EXPECT_EQ(topo.islandOf(9), 0u);
    EXPECT_EQ(topo.islandOf(5), 1u);
    EXPECT_EQ(topo.islandSizeOf(0), 6u);
    EXPECT_EQ(topo.islandSizeOf(1), 4u);
    EXPECT_EQ(topo.maxIslandSize(), 6u);
    EXPECT_EQ(topo.minIslandSize(), 4u);
    EXPECT_EQ(topo.islandDevices(0), (DeviceSet{0, 2, 4, 6, 8, 9}));
    EXPECT_TRUE(topo.sameIsland(2, 9));
    EXPECT_FALSE(topo.sameIsland(2, 3));
    EXPECT_TRUE(topo.withinOneIsland({1, 3, 7}));
    EXPECT_FALSE(topo.withinOneIsland({0, 1}));
    EXPECT_TRUE(topo.uniformLinks());
}

TEST(Topology, PerIslandAndPerPairLinkOverrides)
{
    ClusterConfig cfg;
    cfg.islands.resize(3);
    cfg.islands[0].devices = {0, 1};
    cfg.islands[1].devices = {2, 3};
    cfg.islands[1].intra = {400 * kGiga, 1 * kMicro}; // faster NVLink
    cfg.islands[2].devices = {4, 5};
    cfg.islandLinks.push_back(
        {0, 2, {25 * kGiga, 20 * kMicro}, {100 * kGiga, 20 * kMicro}});
    ClusterTopology topo(cfg);

    EXPECT_FALSE(topo.uniformLinks());
    // Island 1's own intra class; island 0 inherits the default.
    EXPECT_DOUBLE_EQ(topo.linkBetween(2, 3).bandwidth, 400 * kGiga);
    EXPECT_DOUBLE_EQ(topo.linkBetween(0, 1).bandwidth,
                     cfg.intraIsland.bandwidth);
    // Pair (0, 2) overridden both ways; pair (0, 1) inherits.
    EXPECT_DOUBLE_EQ(topo.linkBetween(0, 4).bandwidth, 25 * kGiga);
    EXPECT_DOUBLE_EQ(topo.linkBetween(5, 1).bandwidth, 25 * kGiga);
    EXPECT_DOUBLE_EQ(topo.linkBetween(0, 2).bandwidth,
                     cfg.interIsland.bandwidth);
    EXPECT_DOUBLE_EQ(topo.interLink(0, 2).bandwidth, 25 * kGiga);
    EXPECT_DOUBLE_EQ(topo.collectiveLink(2, 0).bandwidth, 100 * kGiga);
    // Flat-ring collectives bottleneck on the slowest spanned pair
    // class.
    CollectiveModel coll(topo);
    const auto flat = [&coll](const DeviceSet &group) {
        return coll.allReduceTime(1e9, group, CollectiveKind::FlatRing);
    };
    const auto ring = [](std::uint32_t size, const LinkParams &link) {
        return CollectiveModel::ringAllReduce(1e9, size, link);
    };
    const LinkParams pair02{100 * kGiga, 20 * kMicro};
    EXPECT_EQ(flat({0, 4}), ring(2, pair02));
    EXPECT_EQ(flat({0, 2}), ring(2, cfg.interIslandCollective));
    EXPECT_EQ(flat({0, 2, 4}), ring(3, pair02));
    // Intra groups keep their island's class.
    EXPECT_EQ(flat({2, 3}), ring(2, {400 * kGiga, 1 * kMicro}));
}

// ===================================================================
// withoutDevices: deriving the surviving island graph after failures
// ===================================================================

TEST(TopologyDegraded, RenumbersSurvivorsDense)
{
    ClusterTopology topo = smallCluster(2); // 2 x 8
    const DegradedTopology deg = topo.withoutDevices({0, 1, 2});

    ASSERT_EQ(deg.newToOld.size(), 13u);
    ASSERT_EQ(deg.oldToNew.size(), 16u);
    EXPECT_EQ(deg.newToOld[0], 3u); // first survivor is original 3
    EXPECT_EQ(deg.newToOld[12], 15u);
    EXPECT_EQ(deg.oldToNew[0], DegradedTopology::kDead);
    EXPECT_EQ(deg.oldToNew[3], 0u);
    EXPECT_EQ(deg.oldToNew[15], 12u);
    EXPECT_TRUE(deg.droppedIslands.empty());

    const ClusterTopology surv(deg.config);
    EXPECT_EQ(surv.numDevices(), 13u);
    EXPECT_EQ(surv.numIslands(), 2u);
    EXPECT_EQ(surv.islandSizeOf(0), 5u);
    EXPECT_EQ(surv.islandSizeOf(1), 8u);
    // The maps agree with the island structure: original device 8
    // (island 1) lands in the surviving island 1.
    EXPECT_EQ(surv.islandOf(deg.oldToNew[8]), 1u);
}

TEST(TopologyDegraded, UniformFabricStaysUniform)
{
    // A uniform cluster must not come back non-uniform (the
    // hierarchical collectives' bottleneck shortcut keys on
    // uniformLinks()), and the surviving shape fingerprint must
    // match the same island graph built directly.
    ClusterTopology topo = smallCluster(2);
    ASSERT_TRUE(topo.uniformLinks());
    const DegradedTopology deg = topo.withoutDevices({0, 1, 2});
    const ClusterTopology surv(deg.config);
    EXPECT_TRUE(surv.uniformLinks());

    ClusterConfig direct;
    direct.islands.resize(2);
    for (std::uint32_t d = 0; d < 5; ++d)
        direct.islands[0].devices.push_back(d);
    for (std::uint32_t d = 5; d < 13; ++d)
        direct.islands[1].devices.push_back(d);
    EXPECT_EQ(surv.fingerprint(), ClusterTopology(direct).fingerprint());
}

TEST(TopologyDegraded, FingerprintSeparatesSurvivingShapes)
{
    ClusterTopology topo = smallCluster(2);
    const auto shape = [&topo](const DeviceSet &dead) {
        return ClusterTopology(topo.withoutDevices(dead).config)
            .fingerprint();
    };
    // Isomorphic failures (any one device of island 0) share a
    // shape — that is what lets a PlanCache re-hit a recurring
    // degraded state; different surviving sets hash apart.
    EXPECT_EQ(shape({3}), shape({4}));
    EXPECT_NE(shape({3}), shape({11}));     // other island shrank
    EXPECT_NE(shape({3}), shape({3, 4}));   // different count
    EXPECT_NE(shape({3}), topo.fingerprint());
}

TEST(TopologyDegraded, DropsEmptiedIslandsAndTheirOverrides)
{
    ClusterConfig cfg;
    cfg.islands.resize(3);
    cfg.islands[0].devices = {0, 1};
    cfg.islands[1].devices = {2, 3};
    cfg.islands[1].intra = {400 * kGiga, 1 * kMicro};
    cfg.islands[2].devices = {4, 5};
    cfg.islandLinks.push_back(
        {0, 1, {25 * kGiga, 20 * kMicro}, {100 * kGiga, 20 * kMicro}});
    cfg.islandLinks.push_back(
        {1, 2, {30 * kGiga, 20 * kMicro}, {150 * kGiga, 20 * kMicro}});
    ClusterTopology topo(cfg);

    // Island 0 loses both devices: it is dropped, its pair override
    // with it (warned, not fatal), and the (1, 2) override is
    // remapped onto the surviving indices (0, 1).
    const DegradedTopology deg = topo.withoutDevices({0, 1});
    EXPECT_EQ(deg.droppedIslands, (std::vector<std::uint32_t>{0}));
    const ClusterTopology surv(deg.config);
    EXPECT_EQ(surv.numIslands(), 2u);
    EXPECT_DOUBLE_EQ(surv.interLink(0, 1).bandwidth, 30 * kGiga);
    EXPECT_DOUBLE_EQ(surv.collectiveLink(0, 1).bandwidth, 150 * kGiga);
    // Island 1's intra override survives as surviving island 0.
    EXPECT_DOUBLE_EQ(surv.intraLink(0).bandwidth, 400 * kGiga);
    EXPECT_DOUBLE_EQ(surv.intraLink(0).latency, 1 * kMicro);
}

TEST(TopologyDegraded, PartialIslandLossKeepsOverrides)
{
    ClusterConfig cfg;
    cfg.islands.resize(2);
    cfg.islands[0].devices = {0, 1, 2};
    cfg.islands[1].devices = {3, 4, 5};
    cfg.islandLinks.push_back(
        {0, 1, {25 * kGiga, 20 * kMicro}, {100 * kGiga, 20 * kMicro}});
    ClusterTopology topo(cfg);

    const DegradedTopology deg = topo.withoutDevices({1, 4});
    EXPECT_TRUE(deg.droppedIslands.empty());
    const ClusterTopology surv(deg.config);
    EXPECT_EQ(surv.numIslands(), 2u);
    EXPECT_EQ(surv.islandSizeOf(0), 2u);
    EXPECT_EQ(surv.islandSizeOf(1), 2u);
    EXPECT_DOUBLE_EQ(surv.interLink(0, 1).bandwidth, 25 * kGiga);
}

TEST(TopologyDegraded, FatalOnMalformedDeadSets)
{
    const auto dies = [](const DeviceSet &dead, const char *pattern) {
        ClusterTopology topo = smallCluster(2);
        EXPECT_EXIT({ topo.withoutDevices(dead); },
                    ::testing::ExitedWithCode(1), pattern);
    };
    dies({}, "empty dead set");
    dies({16}, "out of range");
    dies({3, 3}, "listed dead twice");
    DeviceSet all(16);
    std::iota(all.begin(), all.end(), DeviceId{0});
    dies(all, "all 16 devices are dead");
}

TEST(TopologyValidation, RejectsMalformedIslandSpecs)
{
    const auto dies = [](ClusterConfig cfg, const char *pattern) {
        EXPECT_EXIT({ ClusterTopology topo(std::move(cfg)); },
                    ::testing::ExitedWithCode(1), pattern);
    };

    // Zero-size island.
    {
        ClusterConfig cfg;
        cfg.islands.resize(2);
        cfg.islands[0].devices = {0, 1};
        dies(cfg, "no devices");
    }
    // Duplicate device id within an island.
    {
        ClusterConfig cfg;
        cfg.islands.resize(1);
        cfg.islands[0].devices = {0, 1, 1};
        dies(cfg, "twice");
    }
    // Duplicate device id across islands.
    {
        ClusterConfig cfg;
        cfg.islands.resize(2);
        cfg.islands[0].devices = {0, 1};
        cfg.islands[1].devices = {1, 2};
        dies(cfg, "belongs to islands");
    }
    // Non-dense ids (id 3 with only 3 devices).
    {
        ClusterConfig cfg;
        cfg.islands.resize(1);
        cfg.islands[0].devices = {0, 1, 3};
        dies(cfg, "dense");
    }
    // Empty homogeneous shorthand.
    {
        ClusterConfig cfg;
        cfg.gpusPerNode = 0;
        dies(cfg, "empty cluster");
    }
}

TEST(TopologyValidation, RejectsZeroBandwidths)
{
    const auto dies = [](ClusterConfig cfg, const char *pattern) {
        EXPECT_EXIT({ ClusterTopology topo(std::move(cfg)); },
                    ::testing::ExitedWithCode(1), pattern);
    };

    {
        ClusterConfig cfg;
        cfg.intraIsland.bandwidth = 0;
        dies(cfg, "intraIsland bandwidth");
    }
    {
        ClusterConfig cfg;
        cfg.interIsland.bandwidth = -1;
        dies(cfg, "interIsland bandwidth");
    }
    {
        ClusterConfig cfg;
        cfg.interIslandCollective.bandwidth = 0;
        dies(cfg, "interIslandCollective bandwidth");
    }
    {
        ClusterConfig cfg;
        cfg.device.copyBandwidth = 0;
        dies(cfg, "copyBandwidth");
    }
    // Negative override values are rejected outright.
    {
        ClusterConfig cfg;
        cfg.islands.resize(1);
        cfg.islands[0].devices = {0, 1};
        cfg.islands[0].intra = {-1, 0};
        dies(cfg, "island intra bandwidth");
    }
    {
        ClusterConfig cfg;
        cfg.islands.resize(1);
        cfg.islands[0].devices = {0, 1};
        cfg.islands[0].intra = {200 * kGiga, -1 * kMicro};
        dies(cfg, "island intra latency");
    }
}

TEST(TopologyValidation, LatencyOnlyOverrideInheritsBandwidth)
{
    // Bandwidth 0 with a latency inherits the default class's
    // bandwidth and overrides only the latency.
    ClusterConfig cfg;
    cfg.islands.resize(1);
    cfg.islands[0].devices = {0, 1};
    cfg.islands[0].intra = {0, 5 * kMicro};
    ClusterTopology topo(cfg);
    EXPECT_FALSE(topo.uniformLinks());
    EXPECT_DOUBLE_EQ(topo.intraLink(0).bandwidth,
                     cfg.intraIsland.bandwidth);
    EXPECT_DOUBLE_EQ(topo.intraLink(0).latency, 5 * kMicro);
}

TEST(TopologyValidation, RailsValidatedAndInherited)
{
    // rails == 0 is rejected on the default classes and on overrides.
    {
        ClusterConfig cfg;
        cfg.interIslandCollective.rails = 0;
        EXPECT_EXIT({ ClusterTopology topo(std::move(cfg)); },
                    ::testing::ExitedWithCode(1),
                    "interIslandCollective rails");
    }
    {
        ClusterConfig cfg;
        cfg.numNodes = 2;
        cfg.islandLinks.push_back({0, 1, {}, {50 * kGiga, 0, 0}});
        EXPECT_EXIT({ ClusterTopology topo(std::move(cfg)); },
                    ::testing::ExitedWithCode(1), "rails");
    }

    // A rails-only override (all else default) inherits bandwidth
    // and latency from the default class and changes only the rail
    // count; an all-default override still inherits wholesale.
    ClusterConfig cfg;
    cfg.numNodes = 3;
    cfg.islandLinks.push_back({0, 1, {}, {0, 0, 4}});
    ClusterTopology topo(cfg);
    EXPECT_DOUBLE_EQ(topo.collectiveLink(0, 1).bandwidth,
                     cfg.interIslandCollective.bandwidth);
    EXPECT_DOUBLE_EQ(topo.collectiveLink(0, 1).latency,
                     cfg.interIslandCollective.latency);
    EXPECT_EQ(topo.collectiveLink(0, 1).rails, 4u);
    EXPECT_EQ(topo.collectiveLink(0, 2).rails, 1u);

    // rails participates in the fingerprint: a fabric differing only
    // in rail count must not share cached plans.
    ClusterConfig plain;
    plain.numNodes = 3;
    ClusterConfig railed = plain;
    railed.interIslandCollective.rails = 8;
    EXPECT_NE(ClusterTopology(plain).fingerprint(),
              ClusterTopology(railed).fingerprint());
}

TEST(TopologyValidation, RejectsMalformedIslandLinks)
{
    const auto dies = [](ClusterConfig cfg, const char *pattern) {
        EXPECT_EXIT({ ClusterTopology topo(std::move(cfg)); },
                    ::testing::ExitedWithCode(1), pattern);
    };

    ClusterConfig base;
    base.numNodes = 2;

    {
        ClusterConfig cfg = base;
        cfg.islandLinks.push_back({0, 5, {}, {}});
        dies(cfg, "only");
    }
    {
        ClusterConfig cfg = base;
        cfg.islandLinks.push_back({1, 1, {}, {}});
        dies(cfg, "not a pair");
    }
    {
        ClusterConfig cfg = base;
        cfg.islandLinks.push_back({0, 1, {}, {}});
        cfg.islandLinks.push_back({1, 0, {}, {}});
        dies(cfg, "duplicate");
    }
}

TEST(Topology, LinkClasses)
{
    ClusterTopology topo = smallCluster(2);
    // On-device copy is the fastest, NVLink next, P2P IB slowest.
    EXPECT_GT(topo.linkBetween(3, 3).bandwidth,
              topo.linkBetween(3, 4).bandwidth);
    EXPECT_GT(topo.linkBetween(3, 4).bandwidth,
              topo.linkBetween(3, 12).bandwidth);
    // Cross-island collectives ride the rail-aggregated class.
    EXPECT_GT(topo.collectiveLink(topo.islandOf(0), topo.islandOf(8))
                  .bandwidth,
              topo.linkBetween(0, 8).bandwidth);
}

TEST(Collective, RingAllReduceFormula)
{
    LinkParams link{100.0, 0.0}; // 100 B/s, no latency
    // 2 * (g-1)/g * bytes / bw with g=4, bytes=400: 2*3/4*4 = 6 s.
    EXPECT_NEAR(CollectiveModel::ringAllReduce(400, 4, link), 6.0, 1e-9);
    EXPECT_DOUBLE_EQ(CollectiveModel::ringAllReduce(400, 1, link), 0.0);
}

TEST(Collective, RingAllGatherFormula)
{
    LinkParams link{100.0, 0.0};
    EXPECT_NEAR(CollectiveModel::ringAllGather(400, 4, link), 3.0, 1e-9);
}

TEST(Collective, LatencyTermScalesWithGroup)
{
    LinkParams link{1e12, 1e-6};
    double t4 = CollectiveModel::ringAllReduce(1, 4, link);
    double t8 = CollectiveModel::ringAllReduce(1, 8, link);
    EXPECT_GT(t8, t4);
}

TEST(Collective, FlowTimeResidentIsFree)
{
    ClusterTopology topo = smallCluster(2);
    CollectiveModel coll(topo);
    EXPECT_DOUBLE_EQ(coll.flowTime(1e9, {0, 1}, {0, 1}), 0.0);
}

TEST(Collective, FlowTimePrefersBestPairAndShards)
{
    ClusterTopology topo = smallCluster(2);
    CollectiveModel coll(topo);
    // Overlapping sets copy on-device; disjoint intra-island sets
    // ride NVLink; cross-island rides single-rail IB.
    double copy = coll.flowTime(1e9, {0, 1}, {1, 2});
    double nvlink = coll.flowTime(1e9, {0, 1}, {2, 3});
    double ib = coll.flowTime(1e9, {0, 1}, {8, 9});
    EXPECT_LT(copy, nvlink);
    EXPECT_LT(nvlink, ib);
    // More parallel streams move the same bytes faster.
    EXPECT_LT(coll.flowTime(1e9, {0, 1, 2, 3}, {8, 9, 10, 11}),
              coll.flowTime(1e9, {0}, {8}));
}

TEST(HardwareModel, EfficiencySaturatesAndPenalizesSmallKernels)
{
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    const HardwareParams &p = hw.params();
    EXPECT_GT(hw.efficiency(100 * p.halfEffFlops), 0.9);
    EXPECT_NEAR(hw.efficiency(p.halfEffFlops), 0.5, 1e-9);
    // Crossing a kernel-regime boundary applies a discrete penalty.
    double above = hw.efficiency(p.smallKernelFlops * 1.001);
    double below = hw.efficiency(p.smallKernelFlops * 0.999);
    EXPECT_LT(below, above * 0.85);
    EXPECT_GE(hw.efficiency(1.0), p.minEfficiency);
}

TEST(HardwareModel, EfficiencyMonotoneWithinRegimes)
{
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    double prev = 0;
    for (double w = 2e9; w < 1e12; w *= 2) {
        double eff = hw.efficiency(w);
        EXPECT_GE(eff, prev);
        prev = eff;
    }
}

TEST(HardwareModel, ConfigsRespectBatchDivisibility)
{
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    OperatorDesc op = plainOp(/*batch=*/6);
    for (std::uint32_t n = 1; n <= 16; ++n) {
        for (const ParallelConfig &cfg : hw.configsFor(op, n)) {
            EXPECT_EQ(cfg.devices(), n);
            EXPECT_EQ(6 % cfg.dp, 0u) << "dp must divide batch";
            EXPECT_TRUE(isPowerOfTwo(cfg.tp));
        }
    }
}

TEST(HardwareModel, ValidAllocationsMatchPaperExample)
{
    // §3.3: with TP degree 2 available and batch 6, n = 5, 7 are
    // invalid (5 and 7 neither divide the batch nor compose).
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    OperatorDesc op = plainOp(/*batch=*/6);
    auto valid = hw.validAllocations(op, 16);
    EXPECT_TRUE(std::count(valid.begin(), valid.end(), 6));
    EXPECT_FALSE(std::count(valid.begin(), valid.end(), 5));
    EXPECT_FALSE(std::count(valid.begin(), valid.end(), 7));
    EXPECT_TRUE(hw.isValidAllocation(op, 1));
}

TEST(HardwareModel, TpCapBoundsConfigs)
{
    ClusterTopology topo = smallCluster(1);
    HardwareParams params;
    params.maxTpDegree = 2;
    HardwareModel hw(topo, params);
    OperatorDesc op = plainOp(/*batch=*/1);
    // Pure TP only (batch 1): valid n limited to {1, 2}.
    auto valid = hw.validAllocations(op, 8);
    EXPECT_EQ(valid, (std::vector<std::uint32_t>{1, 2}));
}

TEST(HardwareModel, BestConfigIsCheapest)
{
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    OperatorDesc op = plainOp(/*batch=*/8);
    ParallelConfig best = hw.bestConfig(op, 8);
    for (const ParallelConfig &cfg : hw.configsFor(op, 8))
        EXPECT_LE(hw.opTimeFwd(op, best), hw.opTimeFwd(op, cfg) + 1e-12);
}

TEST(HardwareModel, TpCommChargedOnlyWithTp)
{
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    OperatorDesc op = plainOp(/*batch=*/8);
    double dp_only = hw.opTimeFwd(op, ParallelConfig{8, 1});
    double with_tp = hw.opTimeFwd(op, ParallelConfig{4, 2});
    // Same per-device compute, but TP pays two all-reduces.
    EXPECT_GT(with_tp, dp_only);
}

TEST(HardwareModel, BwdCostsMoreThanFwd)
{
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    OperatorDesc op = plainOp();
    ParallelConfig cfg = hw.bestConfig(op, 4);
    EXPECT_GT(hw.opTimeBwd(op, cfg), hw.opTimeFwd(op, cfg));
    EXPECT_NEAR(hw.opTime(op, 4),
                hw.opTimeFwd(op, cfg) + hw.opTimeBwd(op, cfg), 1e-12);
}

TEST(HardwareModel, HeavyOpsScaleBetterThanLightOps)
{
    // The Fig. 4 phenomenon: scalability sigma(n) = T(1)/T(n) is far
    // higher for heavy ops than for light ones.
    ClusterTopology topo = smallCluster(4);
    HardwareModel hw(topo);
    OperatorDesc heavy = plainOp(64, 512, 4096, OpType::LM);
    OperatorDesc light = plainOp(64, 77, 512, OpType::Text);
    double sigma_heavy = hw.opTime(heavy, 1) / hw.opTime(heavy, 32);
    double sigma_light = hw.opTime(light, 1) / hw.opTime(light, 32);
    EXPECT_GT(sigma_heavy, 3 * sigma_light);
}

TEST(HardwareModel, MetaOpTimeMatchesMemberDesc)
{
    ComputationGraph g = testutil::fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    const MetaOp &m = meta.metaOp(0);
    EXPECT_DOUBLE_EQ(hw.metaOpTime(m, 4), hw.opTime(memberDesc(m), 4));
}

/** T(n) sampled on the valid grid is positive everywhere. */
class OracleSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(OracleSweep, TimesPositiveAndBoundedByLaunch)
{
    ClusterTopology topo = smallCluster(4);
    HardwareModel hw(topo);
    OperatorDesc op = plainOp(/*batch=*/32);
    std::uint32_t n = GetParam();
    if (!hw.isValidAllocation(op, n))
        GTEST_SKIP();
    double t = hw.opTime(op, n);
    EXPECT_GT(t, 2 * hw.params().kernelLaunch);
    EXPECT_LT(t, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllocSweep, OracleSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

} // namespace
} // namespace spindle
