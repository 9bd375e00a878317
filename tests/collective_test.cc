/**
 * @file
 * Closed-form unit tests for the collective-algorithm layer:
 * FlatRing vs Hierarchical pricing, topology-driven island
 * decomposition of arbitrary device groups (leader election,
 * partial and permuted membership), per-island-pair override links,
 * Auto's per-call selection, the phase schedules the runtime
 * executes, and point-to-point flow pricing against a pairwise
 * brute-force reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "test_util.h"

namespace spindle {
namespace {

using testutil::smallCluster;

/**
 * Two 4-GPU islands with round link numbers: intra 400 B/s + 0.5 s,
 * inter-collective 100 B/s + 2 s — hand-computable phase times.
 */
ClusterTopology
twoIslandTopo()
{
    ClusterConfig cfg;
    cfg.islands.resize(2);
    for (std::uint32_t d = 0; d < 4; ++d)
        cfg.islands[0].devices.push_back(d);
    for (std::uint32_t d = 4; d < 8; ++d)
        cfg.islands[1].devices.push_back(d);
    cfg.intraIsland = {400.0, 0.5};
    cfg.interIslandCollective = {100.0, 2.0};
    return ClusterTopology(cfg);
}

/** Three islands with permuted, non-contiguous memberships. */
ClusterTopology
permutedTopo()
{
    ClusterConfig cfg;
    cfg.islands.resize(3);
    cfg.islands[0].devices = {0, 3, 5};
    cfg.islands[1].devices = {1, 4};
    cfg.islands[2].devices = {2, 6, 7};
    return ClusterTopology(cfg);
}

TEST(Collective, TrivialGroupsAreFree)
{
    ClusterTopology topo = smallCluster(2);
    CollectiveModel coll(topo);
    const DeviceSet lone = {3};
    const DeviceSet pair = {0, 9};
    for (CollectiveKind kind :
         {CollectiveKind::FlatRing, CollectiveKind::Hierarchical,
          CollectiveKind::ShardedHierarchical, CollectiveKind::Auto}) {
        EXPECT_EQ(coll.allReduceTime(1e6, lone, kind), 0.0);
        EXPECT_EQ(coll.allGatherTime(1e6, lone, kind), 0.0);
        EXPECT_EQ(coll.allReduceTime(0.0, pair, kind), 0.0);
        EXPECT_TRUE(
            coll.allReduceSchedule(1e6, lone, kind, "x").stages.empty());
    }
}

TEST(Collective, SingleIslandGroupDegeneratesExactlyToFlatRing)
{
    ClusterTopology topo = smallCluster(2);
    CollectiveModel coll(topo);
    for (const DeviceSet &group :
         {DeviceSet{0, 1, 2, 3, 4, 5, 6, 7}, DeviceSet{9, 11, 14},
          DeviceSet{2, 5}}) {
        const double flat = coll.allReduceTime(4e8, group);
        // Bitwise equality: identical formula over the identical
        // link class, not merely a close value.
        EXPECT_EQ(flat, coll.allReduceTime(4e8, group,
                                           CollectiveKind::FlatRing));
        EXPECT_EQ(flat, coll.allReduceTime(4e8, group,
                                           CollectiveKind::Hierarchical));
        EXPECT_EQ(flat,
                  coll.allReduceTime(4e8, group,
                                     CollectiveKind::ShardedHierarchical));
        EXPECT_EQ(flat,
                  coll.allReduceTime(4e8, group, CollectiveKind::Auto));
        EXPECT_EQ(coll.resolveAuto(4e8, group, CollectiveKind::Auto),
                  CollectiveKind::FlatRing);

        // The hierarchical schedule is the flat single step as well.
        const CollectiveSchedule sched = coll.allReduceSchedule(
            4e8, group, CollectiveKind::Hierarchical, "param_sync");
        ASSERT_EQ(sched.stages.size(), 1u);
        ASSERT_EQ(sched.stages[0].size(), 1u);
        EXPECT_EQ(sched.stages[0][0].devices, group);
        EXPECT_EQ(sched.stages[0][0].seconds, flat);
        EXPECT_EQ(sched.stages[0][0].label, "param_sync");
    }
}

TEST(Collective, HierarchicalClosedForm)
{
    ClusterTopology topo = twoIslandTopo();
    CollectiveModel coll(topo);
    const DeviceSet all = {0, 1, 2, 3, 4, 5, 6, 7};
    const double bytes = 1200;

    // Intra phases: (4-1)/4 * 1200/400 + 3 * 0.5 = 2.25 + 1.5.
    const double intra_phase = 3.75;
    // Leader ring, k = 2: 2 * 1/2 * 1200/100 + 2 * 1 * 2 = 12 + 4.
    const double inter = 16.0;
    EXPECT_DOUBLE_EQ(
        coll.allReduceTime(bytes, all, CollectiveKind::Hierarchical),
        intra_phase + inter + intra_phase);

    // Flat ring over the spanning bottleneck (the inter-collective
    // class): 2 * 7/8 * 1200/100 + 14 * 2 = 21 + 28.
    EXPECT_DOUBLE_EQ(
        coll.allReduceTime(bytes, all, CollectiveKind::FlatRing), 49.0);

    // All-gather: leaders (1/2 * 1200/100 + 2 = 8), then intra 3.75.
    EXPECT_DOUBLE_EQ(
        coll.allGatherTime(bytes, all, CollectiveKind::Hierarchical),
        8.0 + intra_phase);
    EXPECT_DOUBLE_EQ(
        coll.allGatherTime(bytes, all, CollectiveKind::FlatRing), 24.5);
}

TEST(Collective, DecompositionHandlesPartialAndPermutedMembership)
{
    ClusterTopology topo = permutedTopo();
    const DeviceSet group = {3, 4, 5, 6};
    const GroupDecomposition d = decomposeByIsland(topo, group);

    ASSERT_EQ(d.islands.size(), 3u);
    EXPECT_EQ(d.islands[0].island, 0u);
    EXPECT_EQ(d.islands[0].devices, (DeviceSet{3, 5}));
    EXPECT_EQ(d.islands[0].leader, 3u);
    EXPECT_EQ(d.islands[1].island, 1u);
    EXPECT_EQ(d.islands[1].devices, (DeviceSet{4}));
    EXPECT_EQ(d.islands[1].leader, 4u);
    EXPECT_EQ(d.islands[2].island, 2u);
    EXPECT_EQ(d.islands[2].devices, (DeviceSet{6}));
    EXPECT_EQ(d.islands[2].leader, 6u);
    EXPECT_EQ(d.leaders, (DeviceSet{3, 4, 6}));
    EXPECT_TRUE(d.spansIslands());

    // A cached decomposition prices identically to an on-the-fly one.
    CollectiveModel coll(topo);
    for (CollectiveKind kind :
         {CollectiveKind::FlatRing, CollectiveKind::Hierarchical,
          CollectiveKind::ShardedHierarchical, CollectiveKind::Auto}) {
        EXPECT_EQ(coll.allReduceTime(5e7, group, kind),
                  coll.allReduceTime(5e7, group, kind, &d));
    }
}

TEST(Collective, PerIslandPairOverrideLinksRespected)
{
    // Three 2-GPU islands; the (0, 2) collective link is half the
    // default bandwidth.
    ClusterConfig cfg;
    cfg.islands.resize(3);
    cfg.islands[0].devices = {0, 1};
    cfg.islands[1].devices = {2, 3};
    cfg.islands[2].devices = {4, 5};
    cfg.intraIsland = {400.0, 0.0};
    cfg.interIslandCollective = {100.0, 1.0};
    cfg.islandLinks.push_back(
        {0, 2, /*p2p=*/{0, 0}, /*collective=*/{50.0, 1.0}});
    ClusterTopology topo(cfg);
    CollectiveModel coll(topo);

    const double bytes = 800;
    // Group spanning islands 0 and 1: default class. Intra phases:
    // 1/2 * 800/400 = 1; leader ring: 2 * 1/2 * 800/100 + 2 = 10.
    const DeviceSet g01 = {0, 1, 2, 3};
    EXPECT_DOUBLE_EQ(
        coll.allReduceTime(bytes, g01, CollectiveKind::Hierarchical),
        1.0 + 10.0 + 1.0);

    // Group spanning islands 0 and 2: the overridden 50 B/s class
    // bottlenecks the leader ring: 2 * 1/2 * 800/50 + 2 = 18.
    const DeviceSet g02 = {0, 1, 4, 5};
    EXPECT_DOUBLE_EQ(
        coll.allReduceTime(bytes, g02, CollectiveKind::Hierarchical),
        1.0 + 18.0 + 1.0);

    // A group spanning all three islands bottlenecks on the worst
    // spanned pair — the override again.
    const DeviceSet g012 = {0, 1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(
        coll.allReduceTime(bytes, g012, CollectiveKind::Hierarchical),
        1.0 + (2.0 * 2.0 / 3.0 * bytes / 50.0 + 2.0 * 2.0 * 1.0) + 1.0);
}

TEST(Collective, AutoPicksTheCheaperAlgorithmPerCall)
{
    // Paper-default fabric: the inter-island collective class is
    // rail-aggregated (400 GB/s) and *faster* than NVLink's 200
    // GB/s, so large transfers favour the flat ring while small,
    // latency-dominated ones favour the hierarchical schedule's
    // shorter rings.
    ClusterTopology topo = smallCluster(2);
    CollectiveModel coll(topo);
    const DeviceSet all = topo.allDevices();

    const double big = 1 * GiB;
    const double small = 1e6;
    for (double bytes : {big, small}) {
        const double flat =
            coll.allReduceTime(bytes, all, CollectiveKind::FlatRing);
        const double hier = coll.allReduceTime(
            bytes, all, CollectiveKind::Hierarchical);
        EXPECT_EQ(coll.allReduceTime(bytes, all, CollectiveKind::Auto),
                  std::min(flat, hier));
    }
    EXPECT_EQ(coll.resolveAuto(big, all, CollectiveKind::Auto),
              CollectiveKind::FlatRing);
    EXPECT_EQ(coll.resolveAuto(small, all, CollectiveKind::Auto),
              CollectiveKind::Hierarchical);
}

TEST(Collective, HierarchicalScheduleShape)
{
    ClusterTopology topo = twoIslandTopo();
    CollectiveModel coll(topo);

    // Partial group: 3 devices in island 0, 1 in island 1. The
    // singleton island slice has no intra phase.
    const DeviceSet group = {0, 2, 3, 6};
    const CollectiveSchedule sched = coll.allReduceSchedule(
        900, group, CollectiveKind::Hierarchical, "param_sync");
    ASSERT_EQ(sched.stages.size(), 3u);
    ASSERT_EQ(sched.stages[0].size(), 1u); // reduce-scatter: island 0
    EXPECT_EQ(sched.stages[0][0].devices, (DeviceSet{0, 2, 3}));
    EXPECT_EQ(sched.stages[0][0].label, "param_sync_rs");
    ASSERT_EQ(sched.stages[1].size(), 1u); // leader ring
    EXPECT_EQ(sched.stages[1][0].devices, (DeviceSet{0, 6}));
    EXPECT_EQ(sched.stages[1][0].label, "param_sync_xr");
    ASSERT_EQ(sched.stages[2].size(), 1u); // all-gather: island 0
    EXPECT_EQ(sched.stages[2][0].devices, (DeviceSet{0, 2, 3}));
    EXPECT_EQ(sched.stages[2][0].label, "param_sync_ag");

    // The schedule's analytic total is the algorithm's price.
    EXPECT_EQ(sched.seconds(),
              coll.allReduceTime(900, group,
                                 CollectiveKind::Hierarchical));

    // One device per island: only the leader ring remains, and the
    // hierarchical price collapses to the flat ring's.
    const DeviceSet leaders_only = {1, 5};
    const CollectiveSchedule xr_only = coll.allReduceSchedule(
        900, leaders_only, CollectiveKind::Hierarchical, "param_sync");
    ASSERT_EQ(xr_only.stages.size(), 1u);
    ASSERT_EQ(xr_only.stages[0].size(), 1u);
    EXPECT_EQ(xr_only.stages[0][0].devices, leaders_only);
    EXPECT_EQ(coll.allReduceTime(900, leaders_only,
                                 CollectiveKind::Hierarchical),
              coll.allReduceTime(900, leaders_only,
                                 CollectiveKind::FlatRing));
}

/** twoIslandTopo with a rail count on the inter collective class. */
ClusterTopology
railedTwoIslandTopo(std::uint32_t rails)
{
    ClusterConfig cfg;
    cfg.islands.resize(2);
    for (std::uint32_t d = 0; d < 4; ++d)
        cfg.islands[0].devices.push_back(d);
    for (std::uint32_t d = 4; d < 8; ++d)
        cfg.islands[1].devices.push_back(d);
    cfg.intraIsland = {400.0, 0.5};
    cfg.interIslandCollective = {100.0, 2.0, rails};
    return ClusterTopology(cfg);
}

TEST(Collective, ShardedDegeneratesByteExactAtRailsOne)
{
    // On any rails == 1 fabric the sharded algorithm IS the
    // hierarchical one: time, all-gather, resolveAuto and the full
    // phase schedule, bit for bit.
    ClusterTopology topo = twoIslandTopo();
    CollectiveModel coll(topo);
    for (const DeviceSet &group :
         {DeviceSet{0, 1, 2, 3, 4, 5, 6, 7}, DeviceSet{0, 2, 3, 6},
          DeviceSet{1, 5}}) {
        for (double bytes : {1200.0, 3.7e8}) {
            EXPECT_EQ(
                coll.allReduceTime(bytes, group,
                                   CollectiveKind::ShardedHierarchical),
                coll.allReduceTime(bytes, group,
                                   CollectiveKind::Hierarchical));
            EXPECT_EQ(
                coll.allGatherTime(bytes, group,
                                   CollectiveKind::ShardedHierarchical),
                coll.allGatherTime(bytes, group,
                                   CollectiveKind::Hierarchical));
            const CollectiveSchedule sharded = coll.allReduceSchedule(
                bytes, group, CollectiveKind::ShardedHierarchical, "s");
            const CollectiveSchedule hier = coll.allReduceSchedule(
                bytes, group, CollectiveKind::Hierarchical, "s");
            ASSERT_EQ(sharded.stages.size(), hier.stages.size());
            for (std::size_t st = 0; st < hier.stages.size(); ++st) {
                ASSERT_EQ(sharded.stages[st].size(),
                          hier.stages[st].size());
                for (std::size_t i = 0; i < hier.stages[st].size();
                     ++i) {
                    EXPECT_EQ(sharded.stages[st][i].devices,
                              hier.stages[st][i].devices);
                    EXPECT_EQ(sharded.stages[st][i].seconds,
                              hier.stages[st][i].seconds);
                    EXPECT_EQ(sharded.stages[st][i].label,
                              hier.stages[st][i].label);
                }
            }
        }
        // Auto never resolves to Sharded on a rails == 1 fabric (the
        // sharded/hierarchical tie goes to Hierarchical).
        EXPECT_NE(coll.resolveAuto(1200, group, CollectiveKind::Auto),
                  CollectiveKind::ShardedHierarchical);
    }
}

TEST(Collective, ShardedClosedFormAndRailSaturation)
{
    // Four rails, 4-wide island slices: S = 4 concurrent rings each
    // carrying bytes/4. Intra phases unchanged (3.75 each way for
    // 1200 bytes, as in HierarchicalClosedForm); inter ring:
    // 2 * 1/2 * (1200/4)/100 + 2 * 2 = 3 + 4 = 7.
    ClusterTopology topo4 = railedTwoIslandTopo(4);
    CollectiveModel coll4(topo4);
    const DeviceSet all = {0, 1, 2, 3, 4, 5, 6, 7};
    const double bytes = 1200;
    EXPECT_DOUBLE_EQ(
        coll4.allReduceTime(bytes, all,
                            CollectiveKind::ShardedHierarchical),
        3.75 + 7.0 + 3.75);
    // All-gather: sharded leaders 1/2 * 300/100 + 2 = 3.5, intra 3.75.
    EXPECT_DOUBLE_EQ(
        coll4.allGatherTime(bytes, all,
                            CollectiveKind::ShardedHierarchical),
        3.5 + 3.75);

    // rails >= slice size saturates at S = g_i: 8 rails price
    // byte-identically to 4 on 4-wide slices.
    ClusterTopology topo8 = railedTwoIslandTopo(8);
    CollectiveModel coll8(topo8);
    EXPECT_EQ(coll8.allReduceTime(bytes, all,
                                  CollectiveKind::ShardedHierarchical),
              coll4.allReduceTime(bytes, all,
                                  CollectiveKind::ShardedHierarchical));

    // A singleton island slice caps S at 1 regardless of rails:
    // sharded collapses to hierarchical for that group.
    const DeviceSet partial = {0, 2, 3, 6};
    EXPECT_EQ(coll4.allReduceTime(bytes, partial,
                                  CollectiveKind::ShardedHierarchical),
              coll4.allReduceTime(bytes, partial,
                                  CollectiveKind::Hierarchical));

    // Auto is the three-way minimum and resolves to Sharded where it
    // is strictly cheapest.
    const double flat =
        coll4.allReduceTime(bytes, all, CollectiveKind::FlatRing);
    const double hier =
        coll4.allReduceTime(bytes, all, CollectiveKind::Hierarchical);
    const double sharded = coll4.allReduceTime(
        bytes, all, CollectiveKind::ShardedHierarchical);
    EXPECT_LT(sharded, hier);
    EXPECT_EQ(coll4.allReduceTime(bytes, all, CollectiveKind::Auto),
              std::min(std::min(flat, hier), sharded));
    EXPECT_EQ(coll4.resolveAuto(bytes, all, CollectiveKind::Auto),
              CollectiveKind::ShardedHierarchical);
}

TEST(Collective, ShardedRespectsPerPairRailOverrides)
{
    // Three 3-GPU islands; the (0, 1) collective link is overridden
    // to a faster 3-rail class, everything else stays on the
    // single-rail default. A group on islands {0, 1} shards by 3;
    // one spanning the default class must not.
    ClusterConfig cfg;
    cfg.islands.resize(3);
    cfg.islands[0].devices = {0, 1, 2};
    cfg.islands[1].devices = {3, 4, 5};
    cfg.islands[2].devices = {6, 7, 8};
    cfg.intraIsland = {400.0, 0.0};
    cfg.interIslandCollective = {100.0, 1.0};
    cfg.islandLinks.push_back({0, 1, {}, {200.0, 1.0, 3}});
    ClusterTopology topo(cfg);
    CollectiveModel coll(topo);

    const double bytes = 900;
    // Islands {0, 1}: intra 2/3 * 900/400 = 1.5 each way; inter ring
    // over the 3-rail override:
    // 2 * 1/2 * (900/3)/200 + 2 * 1 = 1.5 + 2 = 3.5.
    const DeviceSet g01 = {0, 1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(
        coll.allReduceTime(bytes, g01,
                           CollectiveKind::ShardedHierarchical),
        1.5 + 3.5 + 1.5);

    // Islands {0, 2}: default single-rail class — sharded equals
    // hierarchical bit for bit.
    const DeviceSet g02 = {0, 1, 2, 6, 7, 8};
    EXPECT_EQ(coll.allReduceTime(bytes, g02,
                                 CollectiveKind::ShardedHierarchical),
              coll.allReduceTime(bytes, g02,
                                 CollectiveKind::Hierarchical));

    // A group spanning all three islands bottlenecks on the worst
    // pair's class (single-rail default): no sharding.
    const DeviceSet g012 = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(coll.allReduceTime(bytes, g012,
                                 CollectiveKind::ShardedHierarchical),
              coll.allReduceTime(bytes, g012,
                                 CollectiveKind::Hierarchical));
}

TEST(Collective, ShardedScheduleShape)
{
    ClusterTopology topo = railedTwoIslandTopo(4);
    CollectiveModel coll(topo);
    const DeviceSet all = {0, 1, 2, 3, 4, 5, 6, 7};
    const CollectiveSchedule sched = coll.allReduceSchedule(
        1200, all, CollectiveKind::ShardedHierarchical, "param_sync");

    // [rs x2 islands] -> [4 disjoint per-rail rings] -> [ag x2].
    ASSERT_EQ(sched.stages.size(), 3u);
    ASSERT_EQ(sched.stages[0].size(), 2u);
    EXPECT_EQ(sched.stages[0][0].label, "param_sync_rs");
    ASSERT_EQ(sched.stages[1].size(), 4u);
    for (std::uint32_t r = 0; r < 4; ++r) {
        const CollectiveStep &step = sched.stages[1][r];
        EXPECT_EQ(step.devices, (DeviceSet{r, r + 4}));
        EXPECT_EQ(step.label, "param_sync_xr");
        EXPECT_EQ(step.seconds, sched.stages[1][0].seconds);
    }
    // Ring 0 is exactly the leader set.
    EXPECT_EQ(sched.stages[1][0].devices,
              decomposeByIsland(topo, all).leaders);
    ASSERT_EQ(sched.stages[2].size(), 2u);
    EXPECT_EQ(sched.stages[2][0].label, "param_sync_ag");

    // The schedule's analytic total is the algorithm's price.
    EXPECT_EQ(sched.seconds(),
              coll.allReduceTime(1200, all,
                                 CollectiveKind::ShardedHierarchical));
}

TEST(Collective, TpPricingIsAlgorithmInvariant)
{
    // The Megatron-TP charge the estimator/planner consume is the
    // within-island ring, where every algorithm coincides.
    ClusterTopology topo = smallCluster(2);
    CollectiveModel coll(topo);
    EXPECT_EQ(coll.tpAllReduceTime(3e7, 4),
              CollectiveModel::ringAllReduce(
                  3e7, 4, topo.config().intraIsland));
    const DeviceSet tp_group = {8, 9, 10, 11};
    for (CollectiveKind kind :
         {CollectiveKind::Hierarchical,
          CollectiveKind::ShardedHierarchical, CollectiveKind::Auto}) {
        EXPECT_EQ(coll.allReduceTime(3e7, tp_group, kind),
                  coll.allReduceTime(3e7, tp_group,
                                     CollectiveKind::FlatRing));
    }
}

/**
 * Reference flow pricing: visit every (src, dst) pair, keep the
 * highest-bandwidth linkBetween class, ties toward lower latency.
 * CollectiveModel::flowTime must match it bit for bit.
 */
double
pairwiseFlowTime(const ClusterTopology &topo, double bytes,
                 const DeviceSet &src, const DeviceSet &dst)
{
    if (bytes <= 0 || src == dst)
        return 0.0;
    LinkParams best{0.0, 0.0};
    for (DeviceId s : src) {
        for (DeviceId d : dst) {
            const LinkParams l = topo.linkBetween(s, d);
            if (l.bandwidth > best.bandwidth ||
                (l.bandwidth == best.bandwidth && l.latency < best.latency))
                best = l;
        }
    }
    const double streams =
        static_cast<double>(std::min(src.size(), dst.size()));
    return bytes / streams / best.bandwidth + best.latency;
}

/** Mixed 12/4-GPU islands over shuffled ids, with link overrides. */
ClusterConfig
mixedIslandConfig(std::mt19937_64 &rng)
{
    const std::uint32_t sizes[] = {12, 4, 12, 4, 4};
    DeviceSet ids(36);
    std::iota(ids.begin(), ids.end(), 0u);
    std::shuffle(ids.begin(), ids.end(), rng);
    ClusterConfig cfg;
    auto next = ids.begin();
    for (std::uint32_t size : sizes) {
        IslandSpec island;
        island.devices.assign(next, next + size);
        std::sort(island.devices.begin(), island.devices.end());
        next += size;
        cfg.islands.push_back(island);
    }
    cfg.islands[1].intra = {100 * kGiga, 2 * kMicro};
    cfg.islands[2].intra = {0, 7 * kMicro}; // latency-only override
    cfg.islandLinks.push_back({0, 2, {80 * kGiga, 4 * kMicro}, {0, 0}});
    cfg.islandLinks.push_back({3, 1, {0, 1 * kMicro}, {0, 0}});
    cfg.islandLinks.push_back({4, 0, {250 * kGiga, 9 * kMicro}, {0, 0}});
    return cfg;
}

/** A random device set: distinct ids, sorted or left permuted. */
DeviceSet
randomDeviceSet(std::mt19937_64 &rng, std::uint32_t num_devices)
{
    DeviceSet all(num_devices);
    std::iota(all.begin(), all.end(), 0u);
    std::shuffle(all.begin(), all.end(), rng);
    const std::uint32_t size = std::uniform_int_distribution<std::uint32_t>(
        1, num_devices)(rng);
    DeviceSet out(all.begin(), all.begin() + size);
    if (rng() % 2)
        std::sort(out.begin(), out.end());
    return out;
}

TEST(Collective, FlowTimeMatchesPairwiseBruteForce)
{
    std::mt19937_64 rng(20240613);

    ClusterConfig homogeneous;
    homogeneous.numNodes = 4;
    homogeneous.gpusPerNode = 8;

    ClusterConfig mixed = mixedIslandConfig(rng);

    // Inverted classes: the inter-island fabric outruns NVLink and
    // the on-device copy is the slowest class of all.
    ClusterConfig inverted = mixedIslandConfig(rng);
    inverted.islandLinks.clear();
    inverted.islands[1].intra = {};
    inverted.islands[2].intra = {};
    inverted.intraIsland = {50 * kGiga, 1 * kMicro};
    inverted.interIsland = {300 * kGiga, 20 * kMicro};
    inverted.device.copyBandwidth = 10 * kGiga;

    // Tied bandwidths: copy, intra and inter share one bandwidth, so
    // latency alone decides (copy's zero latency wins when present).
    ClusterConfig tied = homogeneous;
    tied.intraIsland = {200 * kGiga, 3 * kMicro};
    tied.interIsland = {200 * kGiga, 2 * kMicro};
    tied.device.copyBandwidth = 200 * kGiga;

    for (const ClusterConfig *cfg : {&homogeneous, &mixed, &inverted, &tied}) {
        ClusterTopology topo(*cfg);
        CollectiveModel coll(topo);
        const std::uint32_t n = topo.numDevices();
        auto check = [&](const DeviceSet &src, const DeviceSet &dst) {
            const double bytes =
                std::uniform_real_distribution<double>(1.0, 4e9)(rng);
            EXPECT_EQ(coll.flowTime(bytes, src, dst),
                      pairwiseFlowTime(topo, bytes, src, dst))
                << deviceSetStr(src) << " -> " << deviceSetStr(dst);
        };
        for (int trial = 0; trial < 200; ++trial) {
            const DeviceSet src = randomDeviceSet(rng, n);
            // Independent sets, usually overlapping on large draws.
            check(src, randomDeviceSet(rng, n));
            // Same devices in another order: every pair class at once.
            DeviceSet permuted = src;
            std::shuffle(permuted.begin(), permuted.end(), rng);
            check(src, permuted);
            // Sets sharing exactly one device.
            DeviceSet other = randomDeviceSet(rng, n);
            other.erase(std::remove_if(other.begin(), other.end(),
                                       [&](DeviceId d) {
                                           return std::find(src.begin(),
                                                            src.end(),
                                                            d) != src.end();
                                       }),
                        other.end());
            other.push_back(src.front());
            check(src, other);
        }
        for (DeviceId d = 0; d < n; ++d) {
            check({d}, {d});              // identical singletons: free
            check({d}, {(d + 1) % n});    // one pair, either class
            check({d, (d + 5) % n}, {d}); // overlap plus one pair
        }
    }
}

TEST(Collective, ReduceScatterSharesTheAllGatherShape)
{
    const LinkParams link{200.0, 0.25};
    EXPECT_EQ(CollectiveModel::ringReduceScatter(1000, 5, link),
              CollectiveModel::ringAllGather(1000, 5, link));
    EXPECT_EQ(CollectiveModel::ringReduceScatter(1000, 1, link), 0.0);
}

} // namespace
} // namespace spindle
