/**
 * @file
 * Reference-vs-optimized planner equivalence.
 *
 * The planner fast path (incremental placement scoring, admissible
 * band pruning, the scheduler's maintained candidate order, memoized
 * cost lookups) promises *bit-identical* plans to the original
 * implementation. This suite pins that promise: the pre-optimization
 * wavefront scheduler and device placement are frozen in
 * reference_planner.h, and every seed workload is planned by both
 * pipelines and byte-compared — comm-first passes, partial and full
 * memory-first restarts alike.
 *
 * A determinism case re-runs the planner to catch accidental
 * dependence on hash or sharded-memo iteration order, and concurrent
 * planners generating windows at once must match a serial run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <random>
#include <thread>

#include "planner/planner.h"
#include "reference_planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;

// ===================================================================
// Byte comparison helpers
// ===================================================================

/** Exact (bit-pattern) double equality: no tolerance, -0.0 != 0.0. */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " vs " << b << " (bit patterns differ)";
}

void
expectPlansIdentical(const ExecutionPlan &ref, const ExecutionPlan &opt)
{
    EXPECT_EQ(ref.numDevices, opt.numDevices);
    EXPECT_TRUE(sameBits(ref.estimatedSpan, opt.estimatedSpan));
    EXPECT_TRUE(sameBits(ref.theoreticalOptimum, opt.theoreticalOptimum));

    ASSERT_EQ(ref.waves.size(), opt.waves.size());
    for (std::size_t i = 0; i < ref.waves.size(); ++i) {
        const Wave &rw = ref.waves[i];
        const Wave &ow = opt.waves[i];
        SCOPED_TRACE(strCat("wave ", i));
        EXPECT_EQ(rw.index, ow.index);
        EXPECT_EQ(rw.level, ow.level);
        EXPECT_EQ(rw.stream, ow.stream);
        EXPECT_EQ(rw.predecessors, ow.predecessors);
        EXPECT_TRUE(sameBits(rw.start, ow.start));
        EXPECT_TRUE(sameBits(rw.duration, ow.duration));
        ASSERT_EQ(rw.entries.size(), ow.entries.size());
        for (std::size_t j = 0; j < rw.entries.size(); ++j) {
            const WaveEntry &re = rw.entries[j];
            const WaveEntry &oe = ow.entries[j];
            SCOPED_TRACE(strCat("entry ", j));
            EXPECT_EQ(re.metaOp, oe.metaOp);
            EXPECT_EQ(re.n, oe.n);
            EXPECT_EQ(re.opBegin, oe.opBegin);
            EXPECT_EQ(re.numOps, oe.numOps);
            EXPECT_TRUE(sameBits(re.duration, oe.duration));
            EXPECT_EQ(re.devices, oe.devices);
        }
    }

    ASSERT_EQ(ref.allocations.size(), opt.allocations.size());
    for (std::size_t k = 0; k < ref.allocations.size(); ++k) {
        const LevelAllocation &ra = ref.allocations[k];
        const LevelAllocation &oa = opt.allocations[k];
        SCOPED_TRACE(strCat("level ", k));
        EXPECT_EQ(ra.metaOps, oa.metaOps);
        EXPECT_TRUE(sameBits(ra.continuous.cStar, oa.continuous.cStar));
        ASSERT_EQ(ra.plans.size(), oa.plans.size());
        for (std::size_t p = 0; p < ra.plans.size(); ++p) {
            EXPECT_EQ(ra.plans[p].metaOp, oa.plans[p].metaOp);
            ASSERT_EQ(ra.plans[p].tuples.size(),
                      oa.plans[p].tuples.size());
            for (std::size_t t = 0; t < ra.plans[p].tuples.size(); ++t) {
                EXPECT_EQ(ra.plans[p].tuples[t].n,
                          oa.plans[p].tuples[t].n);
                EXPECT_EQ(ra.plans[p].tuples[t].l,
                          oa.plans[p].tuples[t].l);
            }
        }
    }
}

void
expectPlacementsIdentical(const PlacementResult &ref,
                          const PlacementResult &opt)
{
    EXPECT_EQ(ref.usedMemoryFallback, opt.usedMemoryFallback);
    EXPECT_EQ(ref.fallbackRestartWave, opt.fallbackRestartWave);
    EXPECT_TRUE(sameBits(ref.estimatedCommSeconds,
                         opt.estimatedCommSeconds));
    ASSERT_EQ(ref.peakBytes.size(), opt.peakBytes.size());
    for (std::size_t d = 0; d < ref.peakBytes.size(); ++d)
        EXPECT_TRUE(sameBits(ref.peakBytes[d], opt.peakBytes[d]))
            << "device " << d;
}

/** Reference vs optimized on an explicit cluster config. */
void
expectEquivalentOn(const ComputationGraph &graph, ClusterConfig cluster,
                   PlannerOptions options = {})
{
    ClusterTopology topo(std::move(cluster));
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);

    PlannerOutput ref = reference::plan(hw, options, meta);

    // The optimized pipeline must reproduce the frozen reference bit
    // for bit.
    PlannerOutput opt = ExecutionPlanner(hw, options).plan(meta);
    expectPlansIdentical(ref.plan, opt.plan);
    expectPlacementsIdentical(ref.placement, opt.placement);
}

void
expectEquivalent(const ComputationGraph &graph, std::uint32_t num_nodes,
                 PlannerOptions options = {},
                 ClusterConfig cluster = {})
{
    cluster.numNodes = num_nodes;
    cluster.gpusPerNode = 8;
    expectEquivalentOn(graph, std::move(cluster), options);
}

// ===================================================================
// Seed workloads, comm-first pass
// ===================================================================

TEST(PlannerEquivalence, Fig3Workload)
{
    expectEquivalent(fig3Workload(), 2);
}

TEST(PlannerEquivalence, Clip4Tasks)
{
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2);
}

TEST(PlannerEquivalence, Clip7Tasks)
{
    expectEquivalent(buildMultitaskClip({.numTasks = 7}), 2);
}

TEST(PlannerEquivalence, Clip10Tasks)
{
    expectEquivalent(buildMultitaskClip({.numTasks = 10}), 4);
}

TEST(PlannerEquivalence, Ofasys4Tasks)
{
    expectEquivalent(buildOfasys({.numTasks = 4}), 2);
}

TEST(PlannerEquivalence, Ofasys7Tasks)
{
    expectEquivalent(buildOfasys({.numTasks = 7}), 4);
}

TEST(PlannerEquivalence, QwenVal9B)
{
    expectEquivalent(buildQwenVal({}), 2);
}

TEST(PlannerEquivalence, QwenVal9BLargerCluster)
{
    expectEquivalent(buildQwenVal({}), 8);
}

// ===================================================================
// Alternate planner configurations
// ===================================================================

TEST(PlannerEquivalence, SequentialPlacementStrategy)
{
    PlannerOptions options;
    options.placement.strategy = PlacementStrategy::Sequential;
    expectEquivalent(fig3Workload(), 2, options);
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2, options);
}

TEST(PlannerEquivalence, NoResourceExtension)
{
    PlannerOptions options;
    options.scheduler.extendResources = false;
    expectEquivalent(buildMultitaskClip({.numTasks = 7}), 2, options);
}

TEST(PlannerEquivalence, ZeroShardParams)
{
    PlannerOptions options;
    options.memory.zeroShardParams = true;
    expectEquivalent(buildQwenVal({.size = QwenValConfig::Size::B30,
                                   .batch = 128}),
                     8, options);
}

TEST(PlannerEquivalence, InvertedLinkBandwidthOrdering)
{
    // A fabric whose inter-island links out-run the intra-island
    // ones (fat IB across PCIe-only boxes): placement's link ranks
    // must still mirror flowTime's max-bandwidth pair selection
    // instead of assuming copy > intra > inter ordering. The 4-node
    // runs matter: only there do source slices span islands, where a
    // device with an intra pair *also* has faster inter pairs.
    ClusterConfig cluster;
    cluster.intraIsland = {40 * kGiga, 3 * kMicro};
    cluster.interIsland = {100 * kGiga, 10 * kMicro};
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2, {},
                     cluster);
    expectEquivalent(fig3Workload(), 2, {}, cluster);
    expectEquivalent(buildMultitaskClip({.numTasks = 10}), 4, {},
                     cluster);
    expectEquivalent(buildOfasys({.numTasks = 7}), 4, {}, cluster);
}

TEST(PlannerEquivalence, TiedLinkClassBandwidths)
{
    // Equal bandwidth with different latencies across two classes:
    // placement's link ranks must follow flowTime's lower-latency
    // tie-break (the resolver's selection order) and match the
    // reference bit for bit.
    ClusterConfig cluster;
    cluster.intraIsland = {50 * kGiga, 3 * kMicro};
    cluster.interIsland = {50 * kGiga, 10 * kMicro};
    expectEquivalent(buildMultitaskClip({.numTasks = 10}), 4, {},
                     cluster);
    expectEquivalent(buildOfasys({.numTasks = 7}), 4, {}, cluster);
}

TEST(PlannerEquivalence, OnDeviceCopySlowestOrdering)
{
    // Degenerate ordering with the on-device copy class slowest of
    // all: overlapping-device pairs must not shadow faster fabric
    // links.
    ClusterConfig cluster;
    cluster.device.copyBandwidth = 10 * kGiga;
    expectEquivalent(buildMultitaskClip({.numTasks = 7}), 4, {},
                     cluster);
}

// ===================================================================
// Island-graph topologies (explicit islands, permuted numbering,
// heterogeneous sizes, per-pair overrides)
// ===================================================================

/** Islands striding the id space: device d belongs to island d % k. */
ClusterConfig
stripedCluster(std::uint32_t num_islands, std::uint32_t island_size)
{
    ClusterConfig cfg;
    cfg.islands.resize(num_islands);
    for (std::uint32_t d = 0; d < num_islands * island_size; ++d)
        cfg.islands[d % num_islands].devices.push_back(d);
    return cfg;
}

/** Contiguous islands of the given (possibly mixed) sizes. */
ClusterConfig
heteroCluster(const std::vector<std::uint32_t> &sizes)
{
    ClusterConfig cfg;
    std::uint32_t next = 0;
    for (std::uint32_t s : sizes) {
        IslandSpec island;
        for (std::uint32_t i = 0; i < s; ++i)
            island.devices.push_back(next++);
        cfg.islands.push_back(std::move(island));
    }
    return cfg;
}

TEST(PlannerEquivalence, ExplicitIslandsMatchShorthand)
{
    // An explicit island graph identical to the 2 x 8 shorthand must
    // plan byte-identically to it (and to the frozen reference).
    ClusterConfig shorthand;
    shorthand.numNodes = 2;
    shorthand.gpusPerNode = 8;
    ClusterConfig explicit_cfg = heteroCluster({8, 8});

    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta_a = contractGraph(g);
    MetaGraph meta_b = contractGraph(g);

    ClusterTopology topo_a(shorthand);
    ClusterTopology topo_b(explicit_cfg);
    HardwareModel hw_a(topo_a), hw_b(topo_b);
    PlannerOutput a = ExecutionPlanner(hw_a).plan(meta_a);
    PlannerOutput b = ExecutionPlanner(hw_b).plan(meta_b);
    expectPlansIdentical(a.plan, b.plan);
    expectPlacementsIdentical(a.placement, b.placement);

    expectEquivalentOn(g, explicit_cfg);
}

TEST(PlannerEquivalence, PermutedDeviceNumbering)
{
    // Interleaved island membership: contiguous free-list runs
    // straddle islands constantly, exercising the island-change
    // prefix and the per-position link classes of the banded sweep
    // against the reference's brute-force rescan.
    expectEquivalentOn(buildMultitaskClip({.numTasks = 4}),
                       stripedCluster(2, 8));
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}),
                       stripedCluster(4, 8));
    expectEquivalentOn(buildOfasys({.numTasks = 7}),
                       stripedCluster(4, 8));
}

TEST(PlannerEquivalence, HeterogeneousIslandSizes)
{
    expectEquivalentOn(buildMultitaskClip({.numTasks = 4}),
                       heteroCluster({6, 10}));
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}),
                       heteroCluster({12, 4, 12, 4}));
    expectEquivalentOn(buildQwenVal({}), heteroCluster({6, 10}));
}

TEST(PlannerEquivalence, PerPairLinkOverrides)
{
    // Non-uniform fabric: a per-island intra override and per-pair
    // overrides give more distinct links than the three default
    // classes; the placer ranks all of them through the flow
    // resolver and must still match the reference bit for bit.
    ClusterConfig cfg = heteroCluster({8, 8, 8, 8});
    cfg.islands[1].intra = {400 * kGiga, 1 * kMicro};
    cfg.islandLinks.push_back(
        {0, 3, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});
    cfg.islandLinks.push_back({1, 2, {100 * kGiga, 5 * kMicro}, {}});
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}), cfg);
    expectEquivalentOn(buildOfasys({.numTasks = 7}), cfg);
}

TEST(PlannerEquivalence, ManyDistinctLinks)
{
    // Sixteen 2-GPU islands, each with its own intra class, and every
    // island pair with its own slower point-to-point class: a window
    // off the source's islands ranks by its best pair link, and there
    // are more distinct links than one word of packed rank counters
    // holds, so band scoring must read counters past the first word.
    ClusterConfig cfg = heteroCluster(std::vector<std::uint32_t>(16, 2));
    for (std::uint32_t i = 0; i < 16; ++i)
        cfg.islands[i].intra = {(200.0 + 5.0 * i) * kGiga, 2 * kMicro};
    for (std::uint32_t a = 0; a < 16; ++a)
        for (std::uint32_t b = a + 1; b < 16; ++b)
            cfg.islandLinks.push_back(
                {a, b, {(10.0 + 0.5 * (16 * a + b)) * kGiga, 10 * kMicro},
                 {}});
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}), cfg);
    expectEquivalentOn(buildOfasys({.numTasks = 7}), cfg);
}

// ===================================================================
// IslandAware window generation
// ===================================================================

TEST(PlannerEquivalence, IslandAwareLowersInterIslandComm)
{
    // On mixed-size islands the contiguous-runs windows fragment
    // across island boundaries; island-aware generation must
    // strictly lower the estimated inter-island comm seconds (and
    // here also the total estimate) on seed workloads.
    for (const ComputationGraph &g :
         {buildOfasys({.numTasks = 4}), buildQwenVal({})}) {
        ClusterTopology topo(heteroCluster({6, 10}));
        HardwareModel hw(topo);
        MetaGraph meta_runs = contractGraph(g);
        MetaGraph meta_isl = contractGraph(g);

        PlannerOptions runs_opt;
        runs_opt.placement.windows = WindowPolicy::ContiguousRuns;
        PlannerOptions isl_opt;
        isl_opt.placement.windows = WindowPolicy::IslandAware;

        PlannerOutput runs =
            ExecutionPlanner(hw, runs_opt).plan(meta_runs);
        PlannerOutput isl =
            ExecutionPlanner(hw, isl_opt).plan(meta_isl);

        EXPECT_LT(isl.placement.interIslandCommSeconds,
                  runs.placement.interIslandCommSeconds);
        EXPECT_LE(isl.placement.estimatedCommSeconds,
                  runs.placement.estimatedCommSeconds);
    }
}

TEST(PlannerEquivalence, IslandAwareFirstWaveStaysIntraIsland)
{
    // With every island able to host every first-wave entry, the
    // island-aware generator emits no cross-island candidates, so
    // wave-0 windows never straddle — independent of numbering.
    for (ClusterConfig cfg :
         {stripedCluster(2, 8), heteroCluster({8, 8})}) {
        ClusterTopology topo(cfg);
        HardwareModel hw(topo);
        ComputationGraph g = buildMultitaskClip({.numTasks = 4});
        MetaGraph meta = contractGraph(g);
        PlannerOptions options;
        options.placement.windows = WindowPolicy::IslandAware;
        PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
        ASSERT_FALSE(out.plan.waves.empty());
        for (const WaveEntry &e : out.plan.waves.front().entries) {
            if (e.n <= topo.minIslandSize()) {
                EXPECT_TRUE(topo.withinOneIsland(e.devices))
                    << deviceSetStr(e.devices);
            }
        }
    }
}

/**
 * The placer's contract on one emission over a free list of @p F
 * devices for an entry of @p n: at least one candidate, every band
 * and extra strictly ascending with positions below F, every band at
 * least n long and every extra exactly n.
 */
void
expectWindowContract(const CandidateWindows &cw, std::size_t F,
                     std::uint32_t n)
{
    ASSERT_FALSE(cw.bands.empty() && cw.extras.empty());
    const auto valid = [F](const std::vector<std::uint32_t> &pos) {
        for (std::size_t i = 0; i < pos.size(); ++i)
            if (pos[i] >= F || (i > 0 && pos[i] <= pos[i - 1]))
                return false;
        return true;
    };
    for (const auto &band : cw.bands) {
        ASSERT_TRUE(valid(band));
        ASSERT_GE(band.size(), n);
    }
    for (const auto &extra : cw.extras) {
        ASSERT_TRUE(valid(extra));
        ASSERT_EQ(extra.size(), n);
    }
}

/**
 * The IslandAware candidates on one free list, for each n in @p ns,
 * byte-compared with the frozen reference: bands, then extras in
 * content *and* order (the sweep keeps the first of equally scored
 * extras). Both policies' emissions must also keep the placer's
 * contract, which placement relies on without checking. @p got is
 * reused across calls, the way the placer reuses its
 * CandidateWindows across entries, so stale workspace shows.
 */
void
expectIslandAwareMatchesReference(const ClusterTopology &topo,
                                  const DeviceSet &free,
                                  const std::vector<std::uint32_t> &ns,
                                  CandidateWindows &got)
{
    CandidateWindows want;
    for (std::uint32_t n : ns) {
        SCOPED_TRACE(strCat("n=", n, " of ", free.size(), " free"));
        generateWindows(WindowPolicy::IslandAware, topo, free, n, got);
        reference::islandAwareGenerate(topo, free, n, want);
        ASSERT_EQ(got.bands, want.bands);
        ASSERT_EQ(got.extras, want.extras);
        expectWindowContract(got, free.size(), n);
        generateWindows(WindowPolicy::ContiguousRuns, topo, free, n, got);
        expectWindowContract(got, free.size(), n);
    }
}

/** Every entry size a free list of @p F devices can host. */
std::vector<std::uint32_t>
everyN(std::size_t F)
{
    std::vector<std::uint32_t> ns(F);
    std::iota(ns.begin(), ns.end(), 1u);
    return ns;
}

/** @p topo's devices, each kept free with probability @p keep (at
 *  least one is). */
DeviceSet
punchedFree(const ClusterTopology &topo, double keep, std::mt19937 &rng)
{
    std::bernoulli_distribution kept(keep);
    DeviceSet free;
    for (DeviceId d = 0; d < topo.numDevices(); ++d)
        if (kept(rng))
            free.push_back(d);
    if (free.empty())
        free.push_back(0);
    return free;
}

DeviceSet
allFree(const ClusterTopology &topo)
{
    DeviceSet free(topo.numDevices());
    std::iota(free.begin(), free.end(), DeviceId{0});
    return free;
}

TEST(PlannerEquivalence, IslandAwareCandidatesMatchFrozenReference)
{
    std::mt19937 rng(20251017);
    CandidateWindows got;

    // Random mixed island sizes with many equal-size ties, numbered
    // contiguously or shuffled across islands, on full and randomly
    // punched free lists, at every n.
    const std::uint32_t sizes_pool[] = {1, 2, 3, 4, 4, 6, 8, 8, 12};
    std::uniform_int_distribution<std::size_t> pick(
        0, std::size(sizes_pool) - 1);
    std::uniform_int_distribution<std::uint32_t> num_islands(2, 16);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(strCat("trial ", trial));
        std::vector<std::uint32_t> sizes(num_islands(rng));
        for (std::uint32_t &sz : sizes)
            sz = sizes_pool[pick(rng)];
        ClusterConfig cfg = heteroCluster(sizes);
        if (trial % 2 == 1) {
            std::vector<DeviceId> ids;
            for (const IslandSpec &island : cfg.islands)
                ids.insert(ids.end(), island.devices.begin(),
                           island.devices.end());
            std::shuffle(ids.begin(), ids.end(), rng);
            std::size_t next = 0;
            for (IslandSpec &island : cfg.islands)
                for (DeviceId &d : island.devices)
                    d = ids[next++];
        }
        ClusterTopology topo(cfg);
        for (double keep : {1.0, 0.7, 0.35}) {
            SCOPED_TRACE(strCat("keep ", keep));
            const DeviceSet free =
                keep == 1.0 ? allFree(topo) : punchedFree(topo, keep, rng);
            expectIslandAwareMatchesReference(topo, free,
                                              everyN(free.size()), got);
        }
    }

    // Interleaved (striped) numbering: every island's positions
    // interleave with every other's, so windows need merging.
    for (auto [islands, size] : {std::pair{4u, 8u}, {3u, 5u}, {7u, 3u}}) {
        SCOPED_TRACE(strCat("striped ", islands, "x", size));
        ClusterTopology topo(stripedCluster(islands, size));
        const DeviceSet full = allFree(topo);
        expectIslandAwareMatchesReference(topo, full, everyN(full.size()),
                                          got);
        const DeviceSet punched = punchedFree(topo, 0.6, rng);
        expectIslandAwareMatchesReference(
            topo, punched, everyN(punched.size()), got);
    }

    // The 2048-GPU mixed 12/4 layout, sampled n (every n would be
    // slow for the reference): the catch-all's boundary sizes and the
    // entry sizes a 70B plan uses.
    std::vector<std::uint32_t> layout;
    for (int pair = 0; pair < 128; ++pair) {
        layout.push_back(12);
        layout.push_back(4);
    }
    ClusterTopology topo(heteroCluster(layout));
    const DeviceSet full = allFree(topo);
    expectIslandAwareMatchesReference(
        topo, full, {4, 12, 13, 16, 17, 24, 100, 697, 698, 1023, 1024,
                     1500, 2047, 2048},
        got);
    const DeviceSet punched = punchedFree(topo, 0.6, rng);
    const auto F = static_cast<std::uint32_t>(punched.size());
    expectIslandAwareMatchesReference(
        topo, punched, {13, 17, 200, 698, F / 2, F - 1, F}, got);
}

TEST(PlannerEquivalence, IslandAwareConcurrentPlansMatchSerial)
{
    // Window generation keeps no state of its own: two planners on
    // two threads generate IslandAware windows at once, each through
    // its own CandidateWindows workspace. Both
    // must plan byte-identically to a serial run (and race-free
    // under TSan). Entries outgrow every island, so the greedy
    // catch-all runs.
    std::vector<std::uint32_t> layout;
    for (int pair = 0; pair < 4; ++pair) {
        layout.push_back(12);
        layout.push_back(4);
    }
    ClusterTopology topo(heteroCluster(layout));
    HardwareModel hw(topo);
    const ComputationGraph graphs[] = {buildQwenVal({}),
                                       buildMultitaskClip({.numTasks = 10})};
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;

    PlannerOutput serial[2];
    for (int g = 0; g < 2; ++g) {
        MetaGraph meta = contractGraph(graphs[g]);
        serial[g] = ExecutionPlanner(hw, options).plan(meta);
    }
    bool outgrows = false;
    for (const PlannerOutput &out : serial)
        for (const Wave &w : out.plan.waves)
            for (const WaveEntry &e : w.entries)
                outgrows = outgrows || e.n > topo.maxIslandSize();
    ASSERT_TRUE(outgrows) << "no entry reaches the catch-all";

    // Each thread plans both graphs, in opposite orders, several
    // times, so the two threads overlap in window generation.
    PlannerOutput concurrent[2][2];
    auto worker = [&](int t) {
        for (int rep = 0; rep < 3; ++rep)
            for (int i = 0; i < 2; ++i) {
                const int g = (i + t) % 2;
                MetaGraph meta = contractGraph(graphs[g]);
                concurrent[t][g] = ExecutionPlanner(hw, options).plan(meta);
            }
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    for (int t = 0; t < 2; ++t)
        for (int g = 0; g < 2; ++g) {
            SCOPED_TRACE(strCat("thread ", t, " graph ", g));
            expectPlansIdentical(serial[g].plan, concurrent[t][g].plan);
            expectPlacementsIdentical(serial[g].placement,
                                      concurrent[t][g].placement);
        }
}

// ===================================================================
// Explicit-window (extras) scoring
// ===================================================================

/**
 * IslandAware placement against the reference's brute-force scorer
 * over the frozen IslandAware windows. Extras are scored window by
 * window instead of from band prefix state, so this pins their
 * pricing of flows and residency to the reference, on every fabric
 * the link ranks distinguish. CLIP-10 has no TP > 1 entry; the TP
 * island penalty has its own case below.
 */
TEST(PlannerEquivalence, ExtrasMatchReferenceOnEveryFabric)
{
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;

    auto nodes = [](ClusterConfig cfg, std::uint32_t num_nodes) {
        cfg.numNodes = num_nodes;
        cfg.gpusPerNode = 8;
        return cfg;
    };
    ClusterConfig inverted;
    inverted.intraIsland = {40 * kGiga, 3 * kMicro};
    inverted.interIsland = {100 * kGiga, 10 * kMicro};
    ClusterConfig tied;
    tied.intraIsland = {50 * kGiga, 3 * kMicro};
    tied.interIsland = {50 * kGiga, 10 * kMicro};
    ClusterConfig copy_slowest;
    copy_slowest.device.copyBandwidth = 10 * kGiga;
    ClusterConfig per_pair = heteroCluster({8, 8, 8, 8});
    per_pair.islands[1].intra = {400 * kGiga, 1 * kMicro};
    per_pair.islandLinks.push_back(
        {0, 3, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});
    per_pair.islandLinks.push_back({1, 2, {100 * kGiga, 5 * kMicro}, {}});

    const std::pair<const char *, ClusterConfig> fabrics[] = {
        {"homogeneous", nodes({}, 4)},
        {"inverted", nodes(inverted, 4)},
        {"tied", nodes(tied, 4)},
        {"copy-slowest", nodes(copy_slowest, 4)},
        {"striped", stripedCluster(4, 8)},
        {"per-pair", per_pair},
    };
    const ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    for (const auto &[name, cfg] : fabrics) {
        SCOPED_TRACE(name);
        expectEquivalentOn(g, cfg, options);
    }
}

TEST(PlannerEquivalence, ExtrasPriceTheTpIslandPenalty)
{
    // A batch below the entry size forces TP > 1, so extras that span
    // islands pay the TP island penalty; CLIP-10 above never gets
    // TP > 1. ZeRO-3 keeps the 9B model inside device memory.
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    options.memory.zeroShardParams = true;
    const ComputationGraph g = buildQwenVal({.batch = 2});
    for (const ClusterConfig &cfg :
         {heteroCluster({12, 4, 12, 4}), heteroCluster({6, 10})}) {
        SCOPED_TRACE(strCat(cfg.islands.size(), " islands"));
        // The case must reach the penalty: TP > 1 entries whose
        // committed window spans islands.
        ClusterTopology topo(cfg);
        HardwareModel hw(topo);
        MetaGraph meta = contractGraph(g);
        const PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
        std::size_t spanning_tp = 0;
        for (const Wave &w : out.plan.waves)
            for (const WaveEntry &e : w.entries)
                spanning_tp +=
                    hw.bestConfig(memberDesc(meta.metaOp(e.metaOp)), e.n)
                            .tp > 1 &&
                    !topo.withinOneIsland(e.devices);
        EXPECT_GT(spanning_tp, 0u);
        expectEquivalentOn(g, cfg, options);
    }
}

// ===================================================================
// Memory-first fallback pass
// ===================================================================

/** Shrink HBM until comm-first placement of @p g fails, then
 *  byte-compare the memory-first fallback plans of both
 *  implementations; returns the wave the fallback restarted from. */
std::size_t
expectFallbackEquivalent(const ComputationGraph &g)
{
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    ExecutionPlanner roomy_planner(hw_roomy);
    PlannerOutput baseline = roomy_planner.plan(meta);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    // Descend until the fallback fires: comm-first keeps adapting at
    // mild pressure, so march down in steps. The planner fatal()s
    // only if even memory-first cannot fit, which these fractions
    // stay comfortably above.
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);

        PlannerOutput ref = reference::plan(hw, {}, fresh);
        PlannerOutput opt = ExecutionPlanner(hw).plan(fresh);
        expectPlansIdentical(ref.plan, opt.plan);
        expectPlacementsIdentical(ref.placement, opt.placement);
        if (opt.placement.usedMemoryFallback)
            return opt.placement.fallbackRestartWave;
    }
    ADD_FAILURE() << "memory pressure ladder never triggered the "
                     "fallback pass; tighten the fractions";
    return 0;
}

TEST(PlannerEquivalence, MemoryFirstFallbackPass)
{
    {
        SCOPED_TRACE("CLIP-4");
        expectFallbackEquivalent(buildMultitaskClip({.numTasks = 4}));
    }
    // OFASys commits shared parameter keys at different shares on
    // overlapping devices, so a device already holding a key at a
    // smaller share is charged only the difference (the partial-hit
    // probe); under memory-first scoring that charge picks windows.
    {
        SCOPED_TRACE("OFASys-4");
        expectFallbackEquivalent(buildOfasys({.numTasks = 4}));
    }
    // QWen-VAL first becomes infeasible several waves in: the partial
    // restart keeps the comm-first prefix and goes memory-first from
    // there.
    SCOPED_TRACE("QWen-VAL");
    EXPECT_GT(expectFallbackEquivalent(buildQwenVal({})), 0u);
}

// ===================================================================
// Run-to-run determinism
// ===================================================================

TEST(PlannerEquivalence, PlannerDeterministicAcrossRuns)
{
    // Run one planner 3x and byte-compare: catches accidental
    // dependence on hash or sharded-memo iteration order. The
    // mixed-size island cluster with island-aware windows exercises
    // multi-band sweeps plus cross-island extras.
    ClusterTopology topo(heteroCluster({12, 4, 12, 4}));
    HardwareModel hw(topo);
    ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    MetaGraph meta = contractGraph(g);

    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    ExecutionPlanner planner(hw, options);

    PlannerOutput first = planner.plan(meta);
    for (int run = 1; run < 3; ++run) {
        SCOPED_TRACE(strCat("run ", run));
        PlannerOutput again = planner.plan(meta);
        expectPlansIdentical(first.plan, again.plan);
        expectPlacementsIdentical(first.placement, again.placement);
    }
}

// ===================================================================
// Incremental replanning (plan cache)
// ===================================================================

/**
 * plan() vs cold replan() (cache miss: curve/level memos plus the
 * prefix-donor machinery) vs warm replan() (full hit: positional id
 * remap of the cached plan). All three must be byte-identical — plan() never touches the cache, so it stays
 * the from-scratch reference throughout.
 */
void
expectReplanMatchesPlan(const ComputationGraph &graph,
                        ClusterConfig cluster, PlannerOptions options = {})
{
    ClusterTopology topo(std::move(cluster));
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);
    ExecutionPlanner planner(hw, options);

    PlannerOutput ref = planner.plan(meta);

    PlannerOutput cold = planner.replan(meta);
    EXPECT_FALSE(cold.replan.fullHit);
    expectPlansIdentical(ref.plan, cold.plan);
    expectPlacementsIdentical(ref.placement, cold.placement);

    PlannerOutput warm = planner.replan(meta);
    EXPECT_TRUE(warm.replan.fullHit);
    EXPECT_EQ(warm.replan.reusedLevels, warm.replan.totalLevels);
    expectPlansIdentical(ref.plan, warm.plan);
    expectPlacementsIdentical(ref.placement, warm.placement);
}

void
expectReplanMatchesPlanOnNodes(const ComputationGraph &graph,
                               std::uint32_t num_nodes,
                               PlannerOptions options = {})
{
    ClusterConfig cluster;
    cluster.numNodes = num_nodes;
    cluster.gpusPerNode = 8;
    expectReplanMatchesPlan(graph, std::move(cluster), options);
}

TEST(PlannerEquivalence, ReplanSeedWorkloads)
{
    expectReplanMatchesPlanOnNodes(fig3Workload(), 2);
    expectReplanMatchesPlanOnNodes(buildMultitaskClip({.numTasks = 4}),
                                   2);
    expectReplanMatchesPlanOnNodes(buildOfasys({.numTasks = 7}), 4);
    expectReplanMatchesPlanOnNodes(buildQwenVal({}), 2);
}

TEST(PlannerEquivalence, ReplanIslandTopologies)
{
    expectReplanMatchesPlan(buildMultitaskClip({.numTasks = 7}),
                            stripedCluster(4, 8));
    expectReplanMatchesPlan(buildOfasys({.numTasks = 4}),
                            heteroCluster({12, 4, 12, 4}));

    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    expectReplanMatchesPlan(buildMultitaskClip({.numTasks = 7}),
                            heteroCluster({12, 4, 12, 4}), options);
}

TEST(PlannerEquivalence, ReplanSequentialPlacementStrategy)
{
    // Sequential placement never donates a prefix (its device cursor
    // is not replayed), but full-hit reuse and the cold recompute
    // must still match plan() bit for bit.
    PlannerOptions options;
    options.placement.strategy = PlacementStrategy::Sequential;
    expectReplanMatchesPlanOnNodes(buildMultitaskClip({.numTasks = 4}),
                                   2, options);
}

/** One task, three chained transformer stacks: A -> B -> tail. */
ComputationGraph
chainWorkload(std::int64_t tail_hidden)
{
    WorkloadBuilder b;
    const std::int32_t t = b.addTask("chain");
    NodeRange a = b.addModule(
        t, transformerStack("enc.audio", OpType::Audio, 32, 229, 768, 3));
    NodeRange mid = b.addModule(
        t, transformerStack("enc.text", OpType::Text, 32, 77, 768, 4));
    NodeRange tail = b.addModule(
        t, transformerStack("lm", OpType::LM, 32, 512, tail_hidden, 6));
    b.addFlow(a, mid);
    b.addFlow(mid, tail);
    return b.build();
}

TEST(PlannerEquivalence, ReplanReusesUntouchedLevelPrefix)
{
    // Perturb only the tail module of a 3-level chain: levels 0-1
    // keep their signatures (inflows are recorded on the target, so
    // the tail's width is invisible to them), and the incremental
    // path must reuse the cached allocations plus the committed
    // placement prefix verbatim — yet still emit the exact bytes of
    // a from-scratch plan.
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    ComputationGraph g1 = chainWorkload(1024);
    ComputationGraph g2 = chainWorkload(2048);
    MetaGraph m1 = contractGraph(g1);
    MetaGraph m2 = contractGraph(g2);
    ASSERT_EQ(m1.numLevels(), 3u);
    ASSERT_EQ(m2.numLevels(), 3u);

    ExecutionPlanner planner(hw);
    PlannerOutput ref = planner.plan(m2);

    PlannerOutput seed = planner.replan(m1);
    EXPECT_FALSE(seed.replan.fullHit);

    PlannerOutput inc = planner.replan(m2);
    EXPECT_FALSE(inc.replan.fullHit);
    EXPECT_EQ(inc.replan.totalLevels, 3u);
    EXPECT_EQ(inc.replan.reusedLevels, 2u);
    EXPECT_GT(inc.replan.prefixWaves, 0u);
    expectPlansIdentical(ref.plan, inc.plan);
    expectPlacementsIdentical(ref.placement, inc.placement);

    // The perturbed mix is cached now: replanning it again is a full
    // hit and still byte-identical.
    PlannerOutput warm = planner.replan(m2);
    EXPECT_TRUE(warm.replan.fullHit);
    expectPlansIdentical(ref.plan, warm.plan);
    expectPlacementsIdentical(ref.placement, warm.placement);
}

TEST(PlannerEquivalence, ReplanArrivalOscillation)
{
    // Walk 4 -> 5 -> 4 -> 5 -> 4 tasks: after the first visit to
    // each mix the cache must fully hit, and every replan stays
    // byte-identical to a from-scratch plan. plan() never touches
    // the cache, so interleaving it cannot seed the hits.
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    ComputationGraph g4 = buildMultitaskClip({.numTasks = 4});
    ComputationGraph g5 = buildMultitaskClip({.numTasks = 5});
    MetaGraph m4 = contractGraph(g4);
    MetaGraph m5 = contractGraph(g5);

    ExecutionPlanner planner(hw);
    const std::vector<const MetaGraph *> sequence{&m4, &m5, &m4, &m5,
                                                  &m4};
    std::uint32_t full_hits = 0;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        SCOPED_TRACE(strCat("event ", i));
        const MetaGraph &meta = *sequence[i];
        PlannerOutput ref = planner.plan(meta);
        PlannerOutput inc = planner.replan(meta);
        full_hits += inc.replan.fullHit ? 1 : 0;
        expectPlansIdentical(ref.plan, inc.plan);
        expectPlacementsIdentical(ref.placement, inc.placement);
    }
    EXPECT_EQ(full_hits, 3u);
    EXPECT_EQ(planner.planCache().stats().fullHits, 3u);
    EXPECT_EQ(planner.planCache().stats().misses, 2u);
}

TEST(PlannerEquivalence, ReplanMemoryFirstFallback)
{
    // Under memory pressure replan() must track place()'s fallback
    // cascade byte for byte, and a fallback plan (stored with an
    // empty commit log) must still full-hit on repeat arrivals.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    ExecutionPlanner roomy_planner(hw_roomy);
    PlannerOutput baseline = roomy_planner.plan(meta);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    bool exercised = false;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        SCOPED_TRACE(strCat("frac=", frac));
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);

        ExecutionPlanner planner(hw);
        PlannerOutput ref = planner.plan(fresh);
        PlannerOutput cold = planner.replan(fresh);
        EXPECT_FALSE(cold.replan.fullHit);
        expectPlansIdentical(ref.plan, cold.plan);
        expectPlacementsIdentical(ref.placement, cold.placement);

        PlannerOutput warm = planner.replan(fresh);
        EXPECT_TRUE(warm.replan.fullHit);
        expectPlansIdentical(ref.plan, warm.plan);
        expectPlacementsIdentical(ref.placement, warm.placement);

        if (ref.placement.usedMemoryFallback) {
            exercised = true;
            break;
        }
    }
    EXPECT_TRUE(exercised)
        << "memory pressure ladder never triggered the fallback pass; "
           "tighten the fractions";
}

// ===================================================================
// Incremental sweep state & admissible band pruning
// ===================================================================

/**
 * Worst case for placement's device classes: tasks 2k share one
 * parameter stack, tasks 2k+1 another, and every task adds a private
 * tower, so wavefront interleaving makes consecutive placement
 * entries alternate between overlapping and fully disjoint sig-key
 * sets, and windows keep cutting across classes that earlier entries
 * formed. Each entry's probe of a class must see exactly the keys its
 * members hold, and a commit must move exactly the window's members
 * of each class. A class updated for devices outside the window, or
 * a probe read from another class, surfaces as a byte mismatch
 * against the frozen reference's per-device maps.
 */
ComputationGraph
sigAlternationWorkload()
{
    WorkloadBuilder b;
    const std::int64_t batch = 32;
    SharedModule even_text = b.declareShared(
        transformerStack("even.text", OpType::Text, batch, 77, 768, 3));
    SharedModule odd_lm = b.declareShared(
        transformerStack("odd.lm", OpType::LM, batch, 256, 1024, 4));
    for (int t = 0; t < 6; ++t) {
        const std::int32_t task = b.addTask(strCat("task", t));
        NodeRange tower = b.addModule(
            task,
            transformerStack(strCat("t", t, ".tower"), OpType::Vision,
                             batch, 128 + 16 * t, 768,
                             2 + static_cast<std::uint32_t>(t) % 3));
        NodeRange head =
            t % 2 == 0
                ? b.addModule(task,
                              transformerStack(strCat("t", t, ".text"),
                                               OpType::Text, batch, 77,
                                               768, 3),
                              &even_text)
                : b.addModule(task,
                              transformerStack(strCat("t", t, ".lm"),
                                               OpType::LM, batch, 256,
                                               1024, 4),
                              &odd_lm);
        b.addFlow(tower, head);
    }
    return b.build();
}

TEST(PlannerEquivalence, DirtyTrackingSigAlternation)
{
    ComputationGraph g = sigAlternationWorkload();

    // Reference vs optimized (the optimized sweep prunes), on contiguous
    // islands and on a striped numbering whose free-list runs churn
    // across islands.
    expectEquivalent(g, 2);
    expectEquivalentOn(g, stripedCluster(4, 4));
}

/**
 * A device's stored total sums its parameter shares in the bucket
 * order of its map, and that order shows in the bits. MetaOp 0 is a
 * chain of one large and four tiny parameter sets, the tiny ones
 * ~2^-53 of the large one: each alone rounds away against it, but
 * their sum does not, so adding them before or after the large share
 * gives different bits. MetaOp 1 (3 devices) follows MetaOp 0
 * (6 of 8 devices), so it must land on part of MetaOp 0's devices.
 * Those devices then hold MetaOp 0's keys inserted in MetaOp 0's
 * order, and must sum in that order, not in one rebuilt from another
 * device's map.
 */
TEST(PlannerEquivalence, SplitDevicesKeepTheirSummationOrder)
{
    constexpr double kLarge = 0x1p34;
    constexpr double kTiny = 0x1.8p-20; // share: ~0.4 ulp of the large one
    ComputationGraph g;
    const auto add_op = [&g](OpType type, double param_bytes) {
        OperatorDesc d;
        d.type = type;
        d.input = {12, 64, 256};
        d.flopsFwd = 1e9;
        d.paramBytes = param_bytes;
        d.activationBytes = 1.0;
        return g.addOperator(std::move(d));
    };
    OpId prev = add_op(OpType::Vision, kLarge);
    for (int i = 0; i < 4; ++i) {
        const OpId op = add_op(OpType::Vision, kTiny);
        g.addEdge(prev, op);
        prev = op;
    }
    g.addEdge(prev, add_op(OpType::LM, 1e6));
    g.finalize();
    const MetaGraph meta = contractGraph(g);
    ASSERT_EQ(meta.numMetaOps(), 2u);
    ASSERT_EQ(meta.metaOp(0).ops.size(), 5u);

    // The fixture is order-sensitive: tiny shares first, then the
    // large one, differs from the large one first.
    double tiny_first = 0, large_first = kLarge;
    for (int i = 0; i < 4; ++i) {
        tiny_first += kTiny;
        large_first += kTiny;
    }
    ASSERT_FALSE(sameBits(tiny_first + kLarge, large_first));

    ExecutionPlan plan;
    plan.numDevices = 8;
    for (const auto &[m, n] : {std::pair{0, 6u}, std::pair{1, 3u}}) {
        Wave w;
        w.index = static_cast<std::int32_t>(plan.waves.size());
        WaveEntry e;
        e.metaOp = m;
        e.n = n;
        e.numOps = meta.metaOp(m).numOps();
        w.entries.push_back(std::move(e));
        plan.waves.push_back(std::move(w));
    }

    ClusterTopology topo = testutil::smallCluster(1);
    HardwareModel hw(topo);
    const MemoryModel mem;
    ExecutionPlan ref_plan = plan;
    const PlacementResult ref =
        reference::place(topo, hw, mem, {}, meta, ref_plan);
    const PlacementResult opt =
        DevicePlacement(topo, hw, mem).place(meta, plan);
    expectPlansIdentical(ref_plan, plan);
    expectPlacementsIdentical(ref, opt);

    // MetaOp 1 split MetaOp 0's devices.
    const DeviceSet &first = plan.waves[0].entries[0].devices;
    const DeviceSet &second = plan.waves[1].entries[0].devices;
    EXPECT_TRUE(std::any_of(second.begin(), second.end(), [&](DeviceId d) {
        return std::binary_search(first.begin(), first.end(), d);
    }));
}

TEST(PlannerEquivalence, Sampled1024GpuMatchesReference)
{
    // The scale acceptance of the incremental, pruned sweep: at the
    // sampled 1024-GPU point (the bench's scale-envelope record), the
    // plan is byte-identical to the reference, which scores every
    // window of every entry.
    ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    ClusterConfig cfg;
    cfg.numNodes = 128;
    cfg.gpusPerNode = 8;
    expectEquivalentOn(g, cfg);
}

} // namespace
} // namespace spindle
