/**
 * @file
 * Unit tests for device placement (§3.5): island affinity, memory
 * balance with parameter deduplication and the memory-first
 * fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "baselines/system.h"
#include "planner/planner.h"
#include "reference_planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

PlannerOutput
planWith(const MetaGraph &meta, const HardwareModel &hw)
{
    return ExecutionPlanner(hw).plan(meta);
}

/** The reference's full memory-first restart (from wave 0) on the
 *  waves of @p plan, which it places in place. */
PlacementResult
referenceFullRestart(const HardwareModel &hw, const MetaGraph &meta,
                     ExecutionPlan &plan)
{
    PlacementResult full;
    full.usedMemoryFallback = true;
    EXPECT_TRUE(reference::tryPlace(hw.topology(), hw,
                                    MemoryModel(MemoryParams{}), {}, meta,
                                    plan, /*first_memory_wave=*/0, full));
    return full;
}

TEST(Placement, EveryEntryPlacedWithDeclaredSize)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput out = planWith(meta, hw);
    for (const Wave &w : out.plan.waves) {
        for (const WaveEntry &e : w.entries) {
            EXPECT_EQ(e.devices.size(), e.n);
            EXPECT_TRUE(isCanonicalDeviceSet(e.devices));
        }
    }
}

TEST(Placement, WaveEntriesOccupyDisjointDevices)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput out = planWith(meta, hw);
    out.plan.validate(meta); // includes the disjointness check
}

TEST(Placement, ReportsPeakMemoryPerDevice)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput out = planWith(meta, hw);
    ASSERT_EQ(out.placement.peakBytes.size(), topo.numDevices());
    double total = 0;
    for (double b : out.placement.peakBytes) {
        EXPECT_GE(b, 0);
        EXPECT_LE(b, topo.device().memoryBytes);
        total += b;
    }
    EXPECT_GT(total, 0);
}

TEST(Placement, SpindleCommCheaperThanSequential)
{
    // The Fig. 10 ablation: locality-aware placement cuts inter-wave
    // transmission versus the baselines' consecutive-devices
    // assignment of the same waves.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput sp = planWith(meta, hw);
    ExecutionPlan seq = sp.plan;
    assignConsecutiveDevices(seq);

    CollectiveModel coll(topo);
    double sp_bytes = totalTransmissionBytes(
        buildTransmissions(meta, sp.plan, coll));
    double seq_bytes =
        totalTransmissionBytes(buildTransmissions(meta, seq, coll));
    EXPECT_LT(sp_bytes, seq_bytes);
}

TEST(Placement, MemoryBalancedAcrossDevices)
{
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput out = planWith(meta, hw);
    double mx = 0, mn = 1e30;
    for (double b : out.placement.peakBytes) {
        mx = std::max(mx, b);
        mn = std::min(mn, b);
    }
    // No device should be loaded an order of magnitude above another.
    EXPECT_LT(mx, 10 * std::max(mn, 1.0));
}

TEST(Placement, MemoryFirstFallbackOnTightMemory)
{
    // Shrink HBM until the comm-first pass cannot fit; the placer
    // must fall back to memory-first scoring rather than fail.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    // Find a capacity between "comfortable" and "impossible".
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    PlannerOutput baseline = planWith(meta, hw_roomy);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    cfg.device.memoryBytes = peak * 1.05;
    ClusterTopology tight(cfg);
    HardwareModel hw_tight(tight);
    PlannerOutput out = planWith(meta, hw_tight);
    for (double b : out.placement.peakBytes)
        EXPECT_LE(b, cfg.device.memoryBytes * (1 + 1e-9));
}

TEST(Placement, MemoryFirstFallbackFlagAndValidity)
{
    // Force the comm-first pass to fail so place() demonstrably runs
    // the memory-first fallback, then check the fallback plan both
    // fits the shrunken capacity and carries valid device sets.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    PlannerOutput baseline = planWith(meta, hw_roomy);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    // March capacity down until comm-first placement no longer fits.
    // Mild pressure lets the comm-first greedy adapt; the fallback
    // is only forced once capacity undercuts its best effort.
    PlannerOutput out;
    bool fell_back = false;
    double capacity_bytes = 0;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);
        out = planWith(fresh, hw);
        if (out.placement.usedMemoryFallback) {
            fell_back = true;
            capacity_bytes = cfg.device.memoryBytes;
            break;
        }
    }
    ASSERT_TRUE(fell_back)
        << "pressure ladder never forced the memory-first pass";

    // The fallback plan fits the shrunken devices...
    ASSERT_EQ(out.placement.peakBytes.size(), 16u);
    for (double b : out.placement.peakBytes)
        EXPECT_LE(b, capacity_bytes * (1 + 1e-9));
    // ...and still yields structurally valid device sets (size,
    // canonical form, in-wave disjointness via validate()).
    MetaGraph fresh = contractGraph(g);
    out.plan.validate(fresh);
    for (const Wave &w : out.plan.waves) {
        for (const WaveEntry &e : w.entries) {
            EXPECT_EQ(e.devices.size(), e.n);
            EXPECT_TRUE(isCanonicalDeviceSet(e.devices));
            for (DeviceId d : e.devices)
                EXPECT_LT(d, 16u);
        }
    }
}

TEST(Placement, PartialFallbackRestartMatchesFullOnSeedLadder)
{
    // On the seed fallback scenario the first infeasible wave is
    // wave 0, so the partial restart degenerates to the full restart;
    // the placement must equal the reference's full restart byte for
    // byte.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    PlannerOutput baseline = planWith(meta, hw_roomy);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    bool exercised = false;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);
        PlannerOutput a = ExecutionPlanner(hw).plan(fresh);
        if (!a.placement.usedMemoryFallback)
            continue;
        EXPECT_EQ(a.placement.fallbackRestartWave, 0u);

        ExecutionPlan full_plan = a.plan;
        const PlacementResult b = referenceFullRestart(hw, fresh, full_plan);
        for (std::size_t i = 0; i < a.plan.waves.size(); ++i)
            for (std::size_t j = 0; j < a.plan.waves[i].entries.size();
                 ++j)
                EXPECT_EQ(a.plan.waves[i].entries[j].devices,
                          full_plan.waves[i].entries[j].devices);
        ASSERT_EQ(a.placement.peakBytes.size(), b.peakBytes.size());
        for (std::size_t d = 0; d < b.peakBytes.size(); ++d)
            EXPECT_DOUBLE_EQ(a.placement.peakBytes[d], b.peakBytes[d]);
        exercised = true;
        break;
    }
    EXPECT_TRUE(exercised)
        << "pressure ladder never forced the memory-first pass";
}

TEST(Placement, PartialFallbackRestartFromLaterWave)
{
    // QWen-VAL under mild pressure first becomes infeasible several
    // waves in: the partial restart must resume there, keep the
    // comm-optimal prefix (estimated comm no worse than the
    // reference's full restart), and still fit the shrunken capacity.
    ComputationGraph g = buildQwenVal({});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    PlannerOutput baseline = planWith(meta, hw_roomy);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    cfg.device.memoryBytes = peak * 0.999 / kMemorySlack;
    ClusterTopology tight(cfg);
    HardwareModel hw(tight);

    MetaGraph fresh = contractGraph(g);
    PlannerOutput a = ExecutionPlanner(hw).plan(fresh);
    ASSERT_TRUE(a.placement.usedMemoryFallback);
    EXPECT_GT(a.placement.fallbackRestartWave, 0u);
    ExecutionPlan full_plan = a.plan;
    const PlacementResult b = referenceFullRestart(hw, fresh, full_plan);

    // Both fit; the partial restart's kept prefix may only improve
    // the comm estimate.
    const double capacity = cfg.device.memoryBytes * (1 + 1e-9);
    for (double bytes : a.placement.peakBytes)
        EXPECT_LE(bytes, capacity);
    for (double bytes : b.peakBytes)
        EXPECT_LE(bytes, capacity);
    EXPECT_LE(a.placement.estimatedCommSeconds, b.estimatedCommSeconds);
    a.plan.validate(fresh);
}

TEST(Placement, MemoryFallback512GpuStress)
{
    // ROADMAP open item: very-large-scale fallback coverage. 512
    // GPUs (64 x 8-GPU islands), QWen-VAL under memory pressure: the
    // comm-first pass must fail mid-plan (not at wave 0) so the
    // memory-first fallback takes the partial-restart path, replays
    // the committed prefix, and still fits with valid device sets.
    // bench_planner_scaling times the same scenario as its
    // placementStress512 lane.
    ComputationGraph g = buildQwenVal({});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 64;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    PlannerOptions options;
    PlannerOutput baseline = ExecutionPlanner(hw_roomy, options).plan(meta);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    PlannerOutput out;
    bool fell_back = false;
    double capacity_bytes = 0;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7}) {
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);
        out = ExecutionPlanner(hw, options).plan(fresh);
        if (out.placement.usedMemoryFallback) {
            fell_back = true;
            capacity_bytes = cfg.device.memoryBytes;
            break;
        }
    }
    ASSERT_TRUE(fell_back)
        << "pressure ladder never forced the memory-first pass";

    // The comm-first pass failed past wave 0, so the fallback
    // resumed from the first infeasible wave (partial restart).
    EXPECT_GT(out.placement.fallbackRestartWave, 0u);

    // Fit under the shrunken capacity on all 512 devices...
    ASSERT_EQ(out.placement.peakBytes.size(), 512u);
    for (double b : out.placement.peakBytes)
        EXPECT_LE(b, capacity_bytes * (1 + 1e-9));
    // ...with structurally valid device sets (size, canonical form,
    // id range; in-wave disjointness via validate()).
    MetaGraph fresh = contractGraph(g);
    out.plan.validate(fresh);
    for (const Wave &w : out.plan.waves) {
        for (const WaveEntry &e : w.entries) {
            EXPECT_EQ(e.devices.size(), e.n);
            EXPECT_TRUE(isCanonicalDeviceSet(e.devices));
            for (DeviceId d : e.devices)
                EXPECT_LT(d, 512u);
        }
    }
}

TEST(Placement, CandidateWindowPoolRecyclesCapacity)
{
    // The placer generates windows once per wave entry; at
    // 4096 devices the emitted bands are large, so clear() must
    // recycle the inner vectors (capacity intact) instead of freeing
    // them — steady-state generation may not hit the allocator.
    CandidateWindows cw;
    cw.appendBand().assign(4096, 0u);
    cw.appendExtra().assign(64, 1u);
    const std::size_t pooled_cap =
        cw.bands[0].capacity() + cw.extras[0].capacity();
    cw.clear();
    EXPECT_TRUE(cw.bands.empty());
    EXPECT_TRUE(cw.extras.empty());

    // Recycled vectors come back empty with their capacity kept.
    std::vector<std::uint32_t> &band = cw.appendBand();
    std::vector<std::uint32_t> &extra = cw.appendExtra();
    EXPECT_TRUE(band.empty());
    EXPECT_TRUE(extra.empty());
    EXPECT_EQ(band.capacity() + extra.capacity(), pooled_cap);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

void
expectSameDevices(const ExecutionPlan &want, const ExecutionPlan &got)
{
    ASSERT_EQ(want.waves.size(), got.waves.size());
    for (std::size_t w = 0; w < want.waves.size(); ++w) {
        ASSERT_EQ(want.waves[w].entries.size(), got.waves[w].entries.size());
        for (std::size_t i = 0; i < want.waves[w].entries.size(); ++i)
            EXPECT_EQ(want.waves[w].entries[i].devices,
                      got.waves[w].entries[i].devices)
                << "wave " << w << " entry " << i;
    }
}

void
expectSamePeaks(const PlacementResult &want, const PlacementResult &got)
{
    ASSERT_EQ(want.peakBytes.size(), got.peakBytes.size());
    for (std::size_t d = 0; d < want.peakBytes.size(); ++d)
        EXPECT_TRUE(sameBits(want.peakBytes[d], got.peakBytes[d]))
            << "device " << d;
}

/**
 * Resume placement at every wave r from place()'s own commit records
 * for waves < r: the replayed prefix goes through the same commit as
 * a scored entry, so each resumed pass must reproduce place()'s
 * devices, result and commit log bit for bit.
 */
void
expectPrefixReplayMatchesPlace(const ComputationGraph &g,
                               const ClusterConfig &cluster,
                               WindowPolicy windows)
{
    ClusterTopology topo(cluster);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(g);
    PlannerOptions options;
    options.placement.windows = windows;
    const ExecutionPlan waves = ExecutionPlanner(hw, options).plan(meta).plan;
    MemoryModel mem(options.memory);
    DevicePlacement placement(topo, hw, mem, options.placement);

    ExecutionPlan full = waves;
    std::vector<PlacementCommit> full_log;
    const PlacementResult want = placement.place(meta, full, &full_log);
    ASSERT_FALSE(want.usedMemoryFallback);
    ASSERT_GT(full.waves.size(), 2u);
    expectSameDevices(waves, full);

    for (std::size_t r = 1; r < full.waves.size(); ++r) {
        SCOPED_TRACE(strCat("resume wave ", r));
        ExecutionPlan resumed = waves;
        std::vector<PlacementCommit> prefix;
        for (std::size_t w = 0; w < resumed.waves.size(); ++w)
            for (std::size_t i = 0; i < resumed.waves[w].entries.size(); ++i)
                resumed.waves[w].entries[i].devices =
                    w < r ? full.waves[w].entries[i].devices : DeviceSet{};
        for (const PlacementCommit &rec : full_log)
            if (rec.wave < r)
                prefix.push_back(rec);

        std::vector<PlacementCommit> log;
        const PlacementResult got =
            placement.placeWithPrefix(meta, resumed, r, prefix, &log);
        expectSameDevices(full, resumed);
        expectSamePeaks(want, got);
        EXPECT_TRUE(sameBits(want.estimatedCommSeconds,
                             got.estimatedCommSeconds));
        EXPECT_TRUE(sameBits(want.interIslandCommSeconds,
                             got.interIslandCommSeconds));
        EXPECT_FALSE(got.usedMemoryFallback);
        ASSERT_EQ(log.size(), full_log.size());
        for (std::size_t k = 0; k < log.size(); ++k) {
            EXPECT_EQ(log[k].wave, full_log[k].wave);
            EXPECT_EQ(log[k].entry, full_log[k].entry);
            EXPECT_TRUE(sameBits(log[k].comm, full_log[k].comm));
            EXPECT_TRUE(
                sameBits(log[k].interIsland, full_log[k].interIsland));
        }
    }
}

TEST(Placement, PrefixReplayMatchesPlaceAtEveryWave)
{
    ClusterConfig nodes;
    nodes.numNodes = 2;
    nodes.gpusPerNode = 8;
    expectPrefixReplayMatchesPlace(buildMultitaskClip({.numTasks = 4}),
                                   nodes, WindowPolicy::ContiguousRuns);

    // Mixed-size islands: IslandAware emits multi-band sweeps plus
    // cross-island extras.
    ClusterConfig islands;
    DeviceId next = 0;
    for (std::uint32_t size : {12u, 4u, 12u, 4u}) {
        IslandSpec island;
        for (std::uint32_t i = 0; i < size; ++i)
            island.devices.push_back(next++);
        islands.islands.push_back(std::move(island));
    }
    expectPrefixReplayMatchesPlace(
        buildQwenVal({.size = QwenValConfig::Size::B9}), islands,
        WindowPolicy::IslandAware);
}

TEST(MemoryModel, ShardingArithmetic)
{
    MemoryModel mem;
    MetaOp m;
    m.paramBytesPerOp = 1000;
    m.activationBytes = 4000;
    // TP shards params; ZeRO shards optimizer state across DP.
    double one_dev =
        mem.paramStateBytesPerDevice(m, 1, ParallelConfig{1, 1});
    EXPECT_DOUBLE_EQ(one_dev, 1000 + 7000);
    double tp2 = mem.paramStateBytesPerDevice(m, 1, ParallelConfig{1, 2});
    EXPECT_DOUBLE_EQ(tp2, 500 + 3500);
    double dp4 = mem.paramStateBytesPerDevice(m, 1, ParallelConfig{4, 1});
    EXPECT_DOUBLE_EQ(dp4, 1000 + 7000.0 / 4);
    // Activations divide across all devices of the slice.
    EXPECT_DOUBLE_EQ(
        mem.activationBytesPerDevice(m, 3, ParallelConfig{2, 2}),
        3 * 4000.0 / 4);
    EXPECT_DOUBLE_EQ(mem.sliceBytesPerDevice(m, 1, ParallelConfig{1, 1}),
                     one_dev + 4000);
}

TEST(MemoryModel, NoZeroShardReplicatesOptimizer)
{
    MemoryParams params;
    params.zeroShardOptimizer = false;
    MemoryModel mem(params);
    MetaOp m;
    m.paramBytesPerOp = 1000;
    double dp4 = mem.paramStateBytesPerDevice(m, 1, ParallelConfig{4, 1});
    EXPECT_DOUBLE_EQ(dp4, 1000 + 7000);
}

} // namespace
} // namespace spindle
