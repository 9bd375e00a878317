/**
 * @file
 * Property-based tests over randomly generated MT MM workloads:
 * graph contraction, planning and execution invariants must hold for
 * any dependency structure the builder can express.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

/** Deterministic random MT workload: tasks of random module chains
 *  with random shared encoders and random fan-in joins. */
ComputationGraph
randomWorkload(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };

    const OpType types[] = {OpType::Text, OpType::Vision, OpType::Audio,
                            OpType::Depth, OpType::Thermal,
                            OpType::Motion};
    const std::int64_t batches[] = {16, 32, 48, 64};

    WorkloadBuilder b;
    const int num_shared = pick(1, 3);
    std::vector<SharedModule> shared;
    std::vector<ModuleSpec> shared_specs;
    for (int i = 0; i < num_shared; ++i) {
        ModuleSpec spec = transformerStack(
            strCat("shared", i), types[pick(0, 5)],
            batches[pick(0, 3)], 64 * pick(1, 4), 256 * pick(1, 4),
            static_cast<std::uint32_t>(pick(2, 8)));
        shared_specs.push_back(spec);
        shared.push_back(b.declareShared(spec));
    }

    const int num_tasks = pick(1, 5);
    for (int t = 0; t < num_tasks; ++t) {
        std::int32_t task = b.addTask(strCat("task", t));
        const int num_encoders = pick(1, 3);
        std::vector<NodeRange> encoders;
        for (int e = 0; e < num_encoders; ++e) {
            if (pick(0, 2) == 0) {
                // Reuse a shared stack (same layer count required).
                int s = pick(0, num_shared - 1);
                ModuleSpec spec = shared_specs[s];
                spec.name = strCat("t", t, ".shared", s);
                encoders.push_back(b.addModule(task, spec, &shared[s]));
            } else {
                encoders.push_back(b.addModule(
                    task, transformerStack(
                              strCat("t", t, ".enc", e),
                              types[pick(0, 5)], batches[pick(0, 3)],
                              64 * pick(1, 4), 256 * pick(1, 4),
                              static_cast<std::uint32_t>(pick(1, 6)))));
            }
        }
        // A fusion stage joining all encoders.
        NodeRange fusion = b.addModule(
            task, transformerStack(strCat("t", t, ".fusion"), OpType::LM,
                                   batches[pick(0, 3)], 128, 512,
                                   static_cast<std::uint32_t>(pick(1, 4))));
        for (const NodeRange &enc : encoders)
            b.addFlow(enc, fusion);
    }
    return b.build();
}

class RandomWorkload : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomWorkload, ContractionPartitionsOperators)
{
    ComputationGraph g = randomWorkload(GetParam());
    MetaGraph meta = contractGraph(g);
    std::set<OpId> seen;
    for (const MetaOp &m : meta.metaOps()) {
        EXPECT_GT(m.numOps(), 0);
        for (OpId op : m.ops) {
            EXPECT_TRUE(seen.insert(op).second);
            const OperatorDesc &desc = g.op(op);
            EXPECT_EQ(desc.type, m.type);
            EXPECT_EQ(desc.input, m.input);
            EXPECT_EQ(desc.taskId, m.taskId);
        }
    }
    EXPECT_EQ(seen.size(), g.numOps());
}

TEST_P(RandomWorkload, ChainsAreConnectedPaths)
{
    ComputationGraph g = randomWorkload(GetParam());
    MetaGraph meta = contractGraph(g);
    for (const MetaOp &m : meta.metaOps()) {
        for (std::size_t i = 0; i + 1 < m.ops.size(); ++i) {
            const auto &succ = g.successors(m.ops[i]);
            ASSERT_EQ(succ.size(), 1u);
            EXPECT_EQ(succ[0], m.ops[i + 1]);
        }
    }
}

TEST_P(RandomWorkload, LevelsRespectDependencies)
{
    ComputationGraph g = randomWorkload(GetParam());
    MetaGraph meta = contractGraph(g);
    for (const MetaEdge &e : meta.edges())
        EXPECT_LT(meta.metaOp(e.src).level, meta.metaOp(e.dst).level);
    // Every level is non-empty and indexes every MetaOp once.
    std::size_t total = 0;
    for (std::size_t k = 0; k < meta.numLevels(); ++k) {
        EXPECT_FALSE(meta.level(k).empty());
        total += meta.level(k).size();
    }
    EXPECT_EQ(total, meta.numMetaOps());
}

TEST_P(RandomWorkload, PlannerProducesValidPlan)
{
    ComputationGraph g = randomWorkload(GetParam());
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = testutil::smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    out.plan.validate(meta);
    EXPECT_GT(out.plan.estimatedSpan, 0);
    EXPECT_GE(out.plan.estimatedSpan,
              out.plan.theoreticalOptimum * (1 - 1e-9));
}

TEST_P(RandomWorkload, EngineExecutesEveryOperator)
{
    ComputationGraph g = randomWorkload(GetParam());
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = testutil::smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    Engine engine(hw);
    IterationResult r = engine.run(meta, out.plan);
    EXPECT_GT(r.iterationSeconds, 0);
    // All forward FLOPs retired: fwd + bwdFactor x fwd.
    const double expect =
        g.totalFlopsFwd() * (1 + hw.params().bwdFlopsFactor);
    EXPECT_NEAR(r.timeline.totalFlops() / expect, 1.0, 1e-9);
}

TEST_P(RandomWorkload, AllSystemsAgreeOnWorkloadCoverage)
{
    ComputationGraph g = randomWorkload(GetParam());
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = testutil::smallCluster(1);
    HardwareModel hw(topo);
    const double expect =
        g.totalFlopsFwd() * (1 + hw.params().bwdFlopsFactor);

    SequentialSystem ds(hw, SequentialMode::DeepSpeed);
    SpindleOptimusSystem optimus(hw);
    for (System *sys : {(System *)&ds, (System *)&optimus}) {
        SystemResult r = sys->runIteration(meta);
        EXPECT_NEAR(r.timeline.totalFlops() / expect, 1.0, 1e-9)
            << r.system;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkload,
                         ::testing::Range<std::uint64_t>(0, 16));

// ---------------------------------------------------------------------
// Collective-algorithm properties over randomized island graphs.

/** A random explicit island graph: 1..5 islands of 1..6 devices,
 *  device ids globally shuffled (permuted, non-contiguous
 *  memberships), occasionally with per-pair collective overrides. */
ClusterConfig
randomIslandConfig(std::mt19937_64 &rng)
{
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int num_islands = pick(1, 5);
    std::vector<std::uint32_t> sizes;
    std::uint32_t total = 0;
    for (int k = 0; k < num_islands; ++k) {
        sizes.push_back(static_cast<std::uint32_t>(pick(1, 6)));
        total += sizes.back();
    }
    std::vector<DeviceId> ids(total);
    std::iota(ids.begin(), ids.end(), 0u);
    std::shuffle(ids.begin(), ids.end(), rng);

    ClusterConfig cfg;
    cfg.islands.resize(num_islands);
    std::size_t cursor = 0;
    for (int k = 0; k < num_islands; ++k)
        for (std::uint32_t j = 0; j < sizes[k]; ++j)
            cfg.islands[k].devices.push_back(ids[cursor++]);

    // Sometimes a multi-rail default fabric (only the sharded
    // algorithm reads rails; everything else must ignore them).
    cfg.interIslandCollective.rails =
        static_cast<std::uint32_t>(pick(1, 4));

    // Sometimes degrade one island pair's collective class.
    if (num_islands >= 2 && pick(0, 1) == 0) {
        const std::uint32_t a =
            static_cast<std::uint32_t>(pick(0, num_islands - 1));
        std::uint32_t b =
            static_cast<std::uint32_t>(pick(0, num_islands - 2));
        if (b >= a)
            ++b;
        cfg.islandLinks.push_back(
            {a, b, /*p2p=*/{0, 0},
             /*collective=*/{double(pick(10, 100)) * kGiga,
                             double(pick(1, 40)) * kMicro,
                             static_cast<std::uint32_t>(pick(1, 3))}});
    }
    return cfg;
}

/** A random non-trivial subset of the cluster's devices. */
DeviceSet
randomGroup(std::mt19937_64 &rng, std::uint32_t num_devices)
{
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    DeviceSet all(num_devices);
    std::iota(all.begin(), all.end(), 0u);
    std::shuffle(all.begin(), all.end(), rng);
    const std::uint32_t size = static_cast<std::uint32_t>(
        pick(2, static_cast<int>(num_devices)));
    all.resize(size);
    canonicalize(all);
    return all;
}

class RandomIslandGraph : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomIslandGraph, AutoIsNeverSlowerThanFlatRing)
{
    std::mt19937_64 rng(GetParam() * 7919 + 17);
    ClusterTopology topo(randomIslandConfig(rng));
    if (topo.numDevices() < 2)
        return;
    CollectiveModel coll(topo);
    for (int trial = 0; trial < 8; ++trial) {
        const DeviceSet group = randomGroup(rng, topo.numDevices());
        const double bytes =
            std::uniform_real_distribution<double>(1.0, 4e9)(rng);
        const double flat =
            coll.allReduceTime(bytes, group, CollectiveKind::FlatRing);
        const double hier = coll.allReduceTime(
            bytes, group, CollectiveKind::Hierarchical);
        const double sharded = coll.allReduceTime(
            bytes, group, CollectiveKind::ShardedHierarchical);
        const double aut =
            coll.allReduceTime(bytes, group, CollectiveKind::Auto);
        EXPECT_LE(aut, flat);
        EXPECT_LE(sharded, hier); // more rings never slows the stage
        EXPECT_EQ(aut, std::min(std::min(flat, hier), sharded));
        // Every kind's schedule (Auto: the winner's) prices exactly
        // like the oracle.
        for (const auto &[kind, t] :
             {std::pair{CollectiveKind::FlatRing, flat},
              std::pair{CollectiveKind::Hierarchical, hier},
              std::pair{CollectiveKind::ShardedHierarchical, sharded},
              std::pair{CollectiveKind::Auto, aut}})
            EXPECT_EQ(coll.allReduceSchedule(bytes, group, kind)
                          .seconds(),
                      t)
                << collectiveKindName(kind);
    }
}

TEST_P(RandomIslandGraph, AllReduceTimeIsMonotoneInBytes)
{
    std::mt19937_64 rng(GetParam() * 104729 + 3);
    ClusterTopology topo(randomIslandConfig(rng));
    if (topo.numDevices() < 2)
        return;
    CollectiveModel coll(topo);
    for (int trial = 0; trial < 4; ++trial) {
        const DeviceSet group = randomGroup(rng, topo.numDevices());
        double bytes = 1.0;
        for (CollectiveKind kind :
             {CollectiveKind::FlatRing, CollectiveKind::Hierarchical,
              CollectiveKind::ShardedHierarchical,
              CollectiveKind::Auto}) {
            double prev = -1.0;
            for (int step = 0; step < 12; ++step) {
                const double t =
                    coll.allReduceTime(bytes, group, kind);
                EXPECT_GE(t, prev)
                    << collectiveKindName(kind) << " at " << bytes;
                prev = t;
                bytes *= 4.0;
            }
            bytes = 1.0;
        }
    }
}

TEST_P(RandomIslandGraph, HierarchicalIsInvariantUnderRenumbering)
{
    // Island-structure-preserving renumberings (the renumbering_test
    // machinery's striping relabel) must not change any collective
    // price: the time depends on the island graph, not on device
    // numbering.
    std::mt19937_64 rng(GetParam() * 15485863 + 11);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const std::uint32_t islands = static_cast<std::uint32_t>(pick(1, 4));
    const std::uint32_t size = static_cast<std::uint32_t>(pick(2, 6));
    testutil::StripeRelabel pi{islands, size};
    ClusterConfig cfg_a = testutil::contiguousIslandConfig(islands, size);
    ClusterConfig cfg_b = testutil::stripedIslandConfig(islands, size);
    // A railed fabric so the sharded algorithm is non-degenerate.
    cfg_a.interIslandCollective.rails = 3;
    cfg_b.interIslandCollective.rails = 3;
    ClusterTopology contiguous(cfg_a);
    ClusterTopology striped(cfg_b);
    CollectiveModel coll_a(contiguous);
    CollectiveModel coll_b(striped);

    for (int trial = 0; trial < 8; ++trial) {
        const DeviceSet group =
            randomGroup(rng, contiguous.numDevices());
        const DeviceSet image = pi.image(group);
        const double bytes =
            std::uniform_real_distribution<double>(1.0, 4e9)(rng);
        for (CollectiveKind kind :
             {CollectiveKind::FlatRing, CollectiveKind::Hierarchical,
              CollectiveKind::ShardedHierarchical,
              CollectiveKind::Auto}) {
            EXPECT_DOUBLE_EQ(coll_a.allReduceTime(bytes, group, kind),
                             coll_b.allReduceTime(bytes, image, kind))
                << collectiveKindName(kind);
        }
        // The decompositions are each other's pi-image.
        const GroupDecomposition da = decomposeByIsland(contiguous,
                                                        group);
        const GroupDecomposition db = decomposeByIsland(striped, image);
        ASSERT_EQ(da.islands.size(), db.islands.size());
        for (std::size_t k = 0; k < da.islands.size(); ++k) {
            EXPECT_EQ(pi.image(da.islands[k].devices),
                      db.islands[k].devices);
        }
    }
}

TEST_P(RandomIslandGraph, DecompositionPartitionsTheGroup)
{
    std::mt19937_64 rng(GetParam() * 6700417 + 29);
    ClusterTopology topo(randomIslandConfig(rng));
    if (topo.numDevices() < 2)
        return;
    for (int trial = 0; trial < 8; ++trial) {
        const DeviceSet group = randomGroup(rng, topo.numDevices());
        const GroupDecomposition d = decomposeByIsland(topo, group);
        DeviceSet reunion;
        std::uint32_t prev_island = 0;
        bool first = true;
        for (const IslandGroup &g : d.islands) {
            EXPECT_FALSE(g.devices.empty());
            EXPECT_TRUE(first || g.island > prev_island);
            prev_island = g.island;
            first = false;
            EXPECT_EQ(g.leader, g.devices.front());
            for (DeviceId dev : g.devices)
                EXPECT_EQ(topo.islandOf(dev), g.island);
            reunion = unionOf(reunion, g.devices);
        }
        EXPECT_EQ(reunion, group);
        EXPECT_EQ(d.leaders.size(), d.islands.size());
    }
}

TEST_P(RandomIslandGraph, FlowPricingInvariantUnderStripeRelabel)
{
    // flowTime picks the best pairwise link class; with tied
    // bandwidths the lower-latency class must win *independently of
    // pair iteration order*. A striping relabel permutes device ids
    // (hence the order pairs are scanned in) while preserving the
    // set of spanned link classes, so flowTime must price
    // identically on the relabeled sets — this pins the
    // deterministic tiebreak.
    std::mt19937_64 rng(GetParam() * 2654435761 + 5);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const std::uint32_t islands = static_cast<std::uint32_t>(pick(2, 4));
    const std::uint32_t size = static_cast<std::uint32_t>(pick(2, 5));
    testutil::StripeRelabel pi{islands, size};
    ClusterConfig cfg_a = testutil::contiguousIslandConfig(islands, size);
    ClusterConfig cfg_b = testutil::stripedIslandConfig(islands, size);
    for (ClusterConfig *cfg : {&cfg_a, &cfg_b}) {
        // Tie the intra and inter point-to-point bandwidths; only
        // latency separates the classes.
        cfg->intraIsland = {200 * kGiga, 1 * kMicro};
        cfg->interIsland = {200 * kGiga, 25 * kMicro};
    }
    ClusterTopology contiguous(cfg_a);
    ClusterTopology striped(cfg_b);
    CollectiveModel coll_a(contiguous);
    CollectiveModel coll_b(striped);

    for (int trial = 0; trial < 16; ++trial) {
        const DeviceSet src = randomGroup(rng, contiguous.numDevices());
        const DeviceSet dst = randomGroup(rng, contiguous.numDevices());
        const double bytes =
            std::uniform_real_distribution<double>(1.0, 4e9)(rng);
        EXPECT_DOUBLE_EQ(
            coll_a.flowTime(bytes, src, dst),
            coll_b.flowTime(bytes, pi.image(src), pi.image(dst)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIslandGraph,
                         ::testing::Range<std::uint64_t>(0, 16));

// ---------------------------------------------------------------------
// Placement's memory charge bounds what the engine charges.

/** Every device's placement peak (optimizer state sharded over the
 *  entry's DP width) is at least the engine's peak for the same plan
 *  (sharded over the parameter's whole device group), so the
 *  capacity check placement applies never admits a plan the engine
 *  would find over the same limit. Exact comparison: on some
 *  workloads the two are equal on the tightest device. */
void
expectPlacementBoundsEnginePeak(const ComputationGraph &graph,
                                std::uint32_t num_nodes,
                                const PlannerOptions &options = {})
{
    ClusterConfig cfg;
    cfg.numNodes = num_nodes;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);
    PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
    const std::vector<double> engine = peakMemoryPerDevice(
        meta, out.plan, hw, MemoryModel(options.memory));
    ASSERT_EQ(out.placement.peakBytes.size(), engine.size());
    for (std::size_t d = 0; d < engine.size(); ++d)
        EXPECT_GE(out.placement.peakBytes[d], engine[d]) << "device " << d;
}

TEST(PlacementMemoryBound, Fig8Workloads)
{
    for (std::uint32_t tasks : {4u, 7u, 10u}) {
        ComputationGraph graph = buildMultitaskClip({.numTasks = tasks});
        for (std::uint32_t nodes : {1u, 2u, 4u}) {
            SCOPED_TRACE(strCat("Multitask-CLIP/", tasks, "T @ ", nodes,
                                " nodes"));
            expectPlacementBoundsEnginePeak(graph, nodes);
        }
    }
    for (std::uint32_t tasks : {4u, 7u}) {
        ComputationGraph graph = buildOfasys({.numTasks = tasks});
        for (std::uint32_t nodes : {1u, 2u, 4u}) {
            SCOPED_TRACE(strCat("OFASys/", tasks, "T @ ", nodes, " nodes"));
            expectPlacementBoundsEnginePeak(graph, nodes);
        }
    }
    ComputationGraph qwen = buildQwenVal({});
    for (std::uint32_t nodes : {4u, 8u}) {
        SCOPED_TRACE(strCat("QWen-VAL-9B @ ", nodes, " nodes"));
        expectPlacementBoundsEnginePeak(qwen, nodes);
    }
}

TEST(PlacementMemoryBound, Tab2LargerScaleZero3)
{
    PlannerOptions options;
    options.memory.zeroShardParams = true;
    for (QwenValConfig::Size size :
         {QwenValConfig::Size::B30, QwenValConfig::Size::B70}) {
        SCOPED_TRACE(size == QwenValConfig::Size::B30 ? "30B" : "70B");
        expectPlacementBoundsEnginePeak(
            buildQwenVal({.size = size, .batch = 128}), 32, options);
    }
}

} // namespace
} // namespace spindle
