/**
 * @file
 * Golden-reference runtime equivalence harness for the collective
 * subsystem (the planner methodology applied to the runtime): the
 * flat-ring sync tail is replayed in-test on the engine's own
 * compute ledger, and the engine with CollectiveKind::FlatRing must
 * reproduce it bit for bit — sync records, iteration ends and the
 * exposed-sync bounds — on all seed workloads. The Hierarchical/Auto
 * algorithms must then be strictly better where the topology
 * rewards them: lower exposed sync on mixed-size island topologies,
 * and bit-identical degeneration when every sync group sits inside
 * one island.
 *
 * Also pins the corrected bucketed-overlap charge (regression: the
 * credit used to be charged against the whole all-reduce even when
 * kMinSyncFraction clamping fired, undercharging the clamped exposed
 * sync).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

/** Bit-exact timeline comparison. */
void
expectIdenticalTimelines(const Timeline &a, const Timeline &b)
{
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        const ExecRecord &ra = a.records()[i];
        const ExecRecord &rb = b.records()[i];
        EXPECT_EQ(ra.device, rb.device) << "record " << i;
        EXPECT_EQ(ra.start, rb.start) << "record " << i;
        EXPECT_EQ(ra.end, rb.end) << "record " << i;
        EXPECT_EQ(ra.kind, rb.kind) << "record " << i;
        EXPECT_EQ(ra.flops, rb.flops) << "record " << i;
        EXPECT_EQ(ra.metaOp, rb.metaOp) << "record " << i;
        EXPECT_STREQ(ra.label, rb.label) << "record " << i;
    }
}

/** The seed workloads the golden harness sweeps. */
std::vector<std::pair<std::string, ComputationGraph>>
seedWorkloads()
{
    std::vector<std::pair<std::string, ComputationGraph>> out;
    out.emplace_back("fig3", fig3Workload());
    out.emplace_back("CLIP-4T", buildMultitaskClip({.numTasks = 4}));
    out.emplace_back("OFASys-4T", buildOfasys({.numTasks = 4}));
    return out;
}

/**
 * FROZEN sync-tail reference: replays the flat-ring
 * group occupation (pool order, each group released at its own
 * devices' free time) on the availability ledger reconstructed from
 * the engine's own compute/transmission records, then applies the
 * frozen exposed-sync charge. Everything the collective layer may
 * influence — sync record order, start/end times, iteration end,
 * exposed sync — must match bit for bit.
 */
void
expectSyncTailMatchesReference(const HardwareModel &hw,
                               const MetaGraph &graph,
                               const ExecutionPlan &plan,
                               const IterationResult &run)
{
    // Split the timeline: all sync records follow the fwd/bwd phase.
    std::vector<const ExecRecord *> sync_records;
    std::vector<double> free_at(plan.numDevices, 0.0);
    double bwd_end = 0;
    bool seen_sync = false;
    for (const ExecRecord &r : run.timeline.records()) {
        if (r.kind == ExecKind::Sync) {
            sync_records.push_back(&r);
            seen_sync = true;
            continue;
        }
        ASSERT_FALSE(seen_sync)
            << "non-sync record after the sync tail began";
        free_at[r.device] = std::max(free_at[r.device], r.end);
        bwd_end = std::max(bwd_end, r.end);
    }

    // Replay the frozen flat-ring schedule over the ledger.
    ParameterGroupPool pool = ParameterGroupPool::build(graph, plan);
    const CollectiveModel &coll = hw.collectives();
    std::size_t next = 0;
    double sync_end = bwd_end;
    double whole_max = 0;
    for (const ParamGroup &g : pool.groups()) {
        if (g.devices.size() < 2)
            continue;
        const double dur = coll.allReduceTime(g.bytes, g.devices,
                                               CollectiveKind::FlatRing);
        whole_max = std::max(whole_max, dur);
        double start = 0;
        for (DeviceId d : g.devices)
            start = std::max(start, free_at[d]);
        const double end = start + dur;
        for (DeviceId d : g.devices) {
            ASSERT_LT(next, sync_records.size());
            const ExecRecord &r = *sync_records[next++];
            EXPECT_EQ(r.device, d);
            EXPECT_EQ(r.start, start);
            EXPECT_EQ(r.end, end);
            EXPECT_STREQ(r.label, "param_sync");
            free_at[d] = end;
        }
        sync_end = std::max(sync_end, end);
    }
    EXPECT_EQ(next, sync_records.size())
        << "engine scheduled extra sync records";

    // Charge bounds of the frozen accounting. The backward span
    // (fwd_end) is not observable from the timeline alone, so the
    // exact credit is pinned separately in
    // OverlapChargePinsClampedExposedSync; here the identity
    // iterationSeconds = bwd_end + exposedSync and the charge's
    // floor/ceiling must hold bit-consistently.
    const double sync_raw = sync_end - bwd_end;
    EXPECT_EQ(run.iterationSeconds, bwd_end + run.breakdown.sync);
    EXPECT_LE(run.breakdown.sync, sync_raw + 1e-15);
    EXPECT_GE(run.breakdown.sync,
              std::min(sync_raw, kMinSyncFraction * whole_max) -
                  1e-15);
}

TEST(RuntimeEquivalence, FlatRingSyncTailMatchesFrozenReference)
{
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    for (const auto &[name, graph] : seedWorkloads()) {
        SCOPED_TRACE(name);
        MetaGraph meta = contractGraph(graph);
        PlannerOutput out = ExecutionPlanner(hw).plan(meta);

        EngineOptions options;
        options.collective = CollectiveKind::FlatRing;
        Engine engine(hw, MemoryParams{}, options);
        IterationResult run = engine.run(meta, out.plan);
        expectSyncTailMatchesReference(hw, meta, out.plan, run);

        // Determinism of the whole timeline, sync tail included.
        IterationResult again = engine.run(meta, out.plan);
        EXPECT_EQ(run.iterationSeconds, again.iterationSeconds);
        expectIdenticalTimelines(run.timeline, again.timeline);
    }
}

TEST(RuntimeEquivalence, HierarchicalDegeneratesOnSingleIslandClusters)
{
    // Every sync group of a one-island cluster decomposes to a
    // single island, where the hierarchical schedule IS the flat
    // ring — the full engine timeline must be bit-identical.
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    for (const auto &[name, graph] : seedWorkloads()) {
        SCOPED_TRACE(name);
        MetaGraph meta = contractGraph(graph);
        PlannerOutput out = ExecutionPlanner(hw).plan(meta);

        EngineOptions flat_opt;
        flat_opt.collective = CollectiveKind::FlatRing;
        EngineOptions hier_opt;
        hier_opt.collective = CollectiveKind::Hierarchical;

        IterationResult flat =
            Engine(hw, MemoryParams{}, flat_opt).run(meta, out.plan);
        IterationResult hier =
            Engine(hw, MemoryParams{}, hier_opt).run(meta, out.plan);
        EXPECT_EQ(flat.iterationSeconds, hier.iterationSeconds);
        EXPECT_EQ(flat.breakdown.sync, hier.breakdown.sync);
        expectIdenticalTimelines(flat.timeline, hier.timeline);
    }
}

/**
 * Mixed-size island fabric that rewards hierarchy: a 12-GPU island
 * next to a 4-GPU island, with a rail-constrained inter-island
 * collective class (@p rails 50 GB/s rails) slower than NVLink.
 */
ClusterTopology
mixedIslandTopo(std::uint32_t rails = 1)
{
    ClusterConfig cfg;
    cfg.islands.resize(2);
    for (std::uint32_t d = 0; d < 12; ++d)
        cfg.islands[0].devices.push_back(d);
    for (std::uint32_t d = 12; d < 16; ++d)
        cfg.islands[1].devices.push_back(d);
    cfg.interIslandCollective = {50 * kGiga, 10 * kMicro, rails};
    return ClusterTopology(cfg);
}

TEST(RuntimeEquivalence, HierarchicalStrictlyLowersExposedSync)
{
    // Acceptance: Hierarchical/Auto strictly lower exposed sync
    // seconds on >= 2 seed workloads over a mixed-size island
    // topology, for the same placed plan.
    ClusterTopology topo = mixedIslandTopo();
    HardwareModel hw(topo);
    std::uint32_t improved = 0;
    for (const auto &[name, graph] :
         {std::pair<std::string, ComputationGraph>{
              "CLIP-4T", buildMultitaskClip({.numTasks = 4})},
          std::pair<std::string, ComputationGraph>{
              "OFASys-4T", buildOfasys({.numTasks = 4})}}) {
        SCOPED_TRACE(name);
        MetaGraph meta = contractGraph(graph);
        PlannerOutput out = ExecutionPlanner(hw).plan(meta);

        // The scenario must exercise cross-island sync groups.
        ParameterGroupPool pool =
            ParameterGroupPool::build(meta, out.plan, &topo);
        bool spanning = false;
        for (const ParamGroup &g : pool.groups())
            if (g.decomposition() != nullptr &&
                g.decomposition()->spansIslands())
                spanning = true;
        ASSERT_TRUE(spanning)
            << "no sync group spans islands; scenario is vacuous";

        EngineOptions options;
        options.collective = CollectiveKind::FlatRing;
        IterationResult flat =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);
        options.collective = CollectiveKind::Hierarchical;
        IterationResult hier =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);
        options.collective = CollectiveKind::Auto;
        IterationResult aut =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);

        EXPECT_LT(hier.breakdown.sync, flat.breakdown.sync);
        EXPECT_LE(aut.breakdown.sync, hier.breakdown.sync);
        EXPECT_LT(aut.iterationSeconds, flat.iterationSeconds);
        if (hier.breakdown.sync < flat.breakdown.sync)
            ++improved;
    }
    EXPECT_EQ(improved, 2u);
}

TEST(RuntimeEquivalence, ShardedStrictlyLowersExposedSyncOnRails)
{
    // Acceptance: on a rail-rich fabric (4 inter-island rails) the
    // sharded algorithm strictly lowers exposed sync below the
    // hierarchical one — the single leader ring is the serial tail
    // it fans out — while on the same fabric with one rail the two
    // are bit-identical end to end.
    ClusterConfig cfg;
    cfg.islands.resize(2);
    for (std::uint32_t d = 0; d < 12; ++d)
        cfg.islands[0].devices.push_back(d);
    for (std::uint32_t d = 12; d < 16; ++d)
        cfg.islands[1].devices.push_back(d);
    cfg.interIslandCollective = {50 * kGiga, 10 * kMicro, 4};
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    std::uint32_t improved = 0;
    for (const auto &[name, graph] :
         {std::pair<std::string, ComputationGraph>{
              "CLIP-4T", buildMultitaskClip({.numTasks = 4})},
          std::pair<std::string, ComputationGraph>{
              "OFASys-4T", buildOfasys({.numTasks = 4})}}) {
        SCOPED_TRACE(name);
        MetaGraph meta = contractGraph(graph);
        PlannerOutput out = ExecutionPlanner(hw).plan(meta);

        // The scenario needs a cross-island group wide enough to
        // shard (>= 2 members in its smallest island slice).
        ParameterGroupPool pool =
            ParameterGroupPool::build(meta, out.plan, &topo);
        bool shardable = false;
        for (const ParamGroup &g : pool.groups())
            if (g.decomposition() != nullptr &&
                g.decomposition()->spansIslands() &&
                g.decomposition()->minSliceSize() >= 2)
                shardable = true;
        ASSERT_TRUE(shardable)
            << "no sync group can shard; scenario is vacuous";

        EngineOptions options;
        options.collective = CollectiveKind::Hierarchical;
        IterationResult hier =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);
        options.collective = CollectiveKind::ShardedHierarchical;
        IterationResult sharded =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);
        options.collective = CollectiveKind::Auto;
        IterationResult aut =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);

        EXPECT_LT(sharded.breakdown.sync, hier.breakdown.sync);
        EXPECT_LE(aut.breakdown.sync, sharded.breakdown.sync);
        EXPECT_LE(sharded.iterationSeconds, hier.iterationSeconds);
        if (sharded.breakdown.sync < hier.breakdown.sync)
            ++improved;

        // One rail: the sharded run reproduces the hierarchical one
        // bit for bit, timeline included.
        ClusterTopology single = mixedIslandTopo();
        HardwareModel hw1(single);
        PlannerOutput out1 = ExecutionPlanner(hw1).plan(meta);
        EngineOptions h1, s1;
        h1.collective = CollectiveKind::Hierarchical;
        s1.collective = CollectiveKind::ShardedHierarchical;
        IterationResult a =
            Engine(hw1, MemoryParams{}, h1).run(meta, out1.plan);
        IterationResult b =
            Engine(hw1, MemoryParams{}, s1).run(meta, out1.plan);
        EXPECT_EQ(a.iterationSeconds, b.iterationSeconds);
        EXPECT_EQ(a.breakdown.sync, b.breakdown.sync);
        expectIdenticalTimelines(a.timeline, b.timeline);
    }
    EXPECT_EQ(improved, 2u);
}

/** Phase rank of a hierarchical sync label; -1 for any other. */
int
syncPhaseRank(const char *label)
{
    const char *phases[] = {"param_sync_rs", "param_sync_xr",
                            "param_sync_ag"};
    for (int r = 0; r < 3; ++r)
        if (std::string_view(label) == phases[r])
            return r;
    return -1;
}

TEST(RuntimeEquivalence, SyncPhaseLabelsReachTheTimelineInStageOrder)
{
    // Each cross-island group's sync records carry their phase label
    // and come in stage order, in record order and in time:
    // reduce-scatter -> inter-island ring(s) -> all-gather. Groups
    // inside one island stay one flat "param_sync" step.
    ClusterTopology topo = mixedIslandTopo(/*rails=*/4);
    HardwareModel hw(topo);
    ComputationGraph graph = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(graph);
    PlannerOutput out = ExecutionPlanner(hw).plan(meta);
    ParameterGroupPool pool =
        ParameterGroupPool::build(meta, out.plan, &topo);

    for (CollectiveKind kind : {CollectiveKind::Hierarchical,
                                CollectiveKind::ShardedHierarchical}) {
        SCOPED_TRACE(collectiveKindName(kind));
        EngineOptions options;
        options.collective = kind;
        IterationResult run =
            Engine(hw, MemoryParams{}, options).run(meta, out.plan);
        std::vector<const ExecRecord *> sync;
        for (const ExecRecord &r : run.timeline.records())
            if (r.kind == ExecKind::Sync)
                sync.push_back(&r);

        std::size_t next = 0, spanning = 0, max_rings = 0;
        for (const ParamGroup &g : pool.groups()) {
            if (g.devices.size() < 2)
                continue;
            std::size_t count = 0;
            for (const auto &stage :
                 hw.collectives()
                     .allReduceSchedule(g.bytes, g.devices, kind,
                                        g.decomposition())
                     .stages)
                for (const CollectiveStep &step : stage)
                    count += step.devices.size();
            ASSERT_LE(next + count, sync.size());
            const ExecRecord *const *recs = sync.data() + next;
            next += count;

            const GroupDecomposition *decomp = g.decomposition();
            ASSERT_NE(decomp, nullptr);
            if (!decomp->spansIslands()) {
                for (std::size_t i = 0; i < count; ++i)
                    EXPECT_STREQ(recs[i]->label, "param_sync");
                continue;
            }
            ++spanning;
            bool intra = false;
            for (const IslandGroup &slice : decomp->islands)
                intra = intra || slice.size() > 1;
            // Last end seen per phase, and records per phase.
            double phase_end[3] = {0, 0, 0};
            std::size_t per_phase[3] = {0, 0, 0};
            int prev = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const int rank = syncPhaseRank(recs[i]->label);
                ASSERT_GE(rank, 0) << "label " << recs[i]->label;
                EXPECT_GE(rank, prev) << "record " << i;
                for (int earlier = 0; earlier < rank; ++earlier)
                    EXPECT_LE(phase_end[earlier], recs[i]->start);
                phase_end[rank] = std::max(phase_end[rank], recs[i]->end);
                ++per_phase[rank];
                prev = rank;
            }
            EXPECT_EQ(per_phase[0] > 0, intra);
            EXPECT_EQ(per_phase[2], per_phase[0]);
            ASSERT_GT(per_phase[1], 0u);
            EXPECT_EQ(per_phase[1] % decomp->numIslands(), 0u);
            max_rings = std::max(max_rings,
                                 per_phase[1] / decomp->numIslands());
        }
        EXPECT_EQ(next, sync.size()) << "unaccounted sync records";
        ASSERT_GT(spanning, 0u) << "no group spans islands; vacuous";
        if (kind == CollectiveKind::ShardedHierarchical)
            EXPECT_GT(max_rings, 1u) << "no group sharded its ring";
        else
            EXPECT_EQ(max_rings, 1u);
    }
}

TEST(RuntimeEquivalence, OverlapChargePinsClampedExposedSync)
{
    // Regression (charge-order fix): the bucketed-overlap credit
    // used to be charged against the whole
    // all-reduce even when kMinSyncFraction clamping fired, pinning
    // the clamped exposed sync to kMinSyncFraction * residual tail
    // instead of kMinSyncFraction * the slowest whole all-reduce.
    ComputationGraph graph = fig3Workload();
    MetaGraph meta = contractGraph(graph);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput out = ExecutionPlanner(hw).plan(meta);

    EngineOptions options;
    options.collective = CollectiveKind::FlatRing;
    Engine engine(hw, MemoryParams{}, options);
    IterationResult run = engine.run(meta, out.plan);

    // Reference quantities, derived independently of SyncExecutor.
    ParameterGroupPool pool = ParameterGroupPool::build(meta, out.plan);
    const CollectiveModel &coll = hw.collectives();
    double whole_max = 0;
    for (const ParamGroup &g : pool.groups())
        if (g.devices.size() >= 2)
            whole_max = std::max(
                whole_max, coll.allReduceTime(g.bytes, g.devices,
                                              CollectiveKind::FlatRing));
    ASSERT_GT(whole_max, 0);

    double bwd_end = 0, sync_end = 0, sync_raw = 0;
    for (const ExecRecord &r : run.timeline.records()) {
        if (r.kind == ExecKind::Sync)
            sync_end = std::max(sync_end, r.end);
        else
            bwd_end = std::max(bwd_end, r.end);
    }
    sync_raw = sync_end - bwd_end;

    // The whole backward span dwarfs the sync tail on this workload,
    // so the clamp fires; the pinned value is the floor over the
    // slowest *whole* collective (capped by the residual tail).
    const double pinned = std::min(sync_raw, kMinSyncFraction * whole_max);
    EXPECT_DOUBLE_EQ(run.breakdown.sync, pinned);

    // The fix must matter here: early release hid part of the
    // slowest collective, so the buggy floor (over the residual
    // tail) would have undercharged.
    ASSERT_LT(sync_raw, whole_max);
    EXPECT_GT(run.breakdown.sync, kMinSyncFraction * sync_raw);
}

// ---------------------------------------------------------------------
// The flat parameter-holder pass against the map-based passes it
// replaced: the sync-group pool byte for byte, the memory ledger
// within 1e-12 relative (its summation order is fixed now, where the
// reference summed in hash-map order).

namespace reference {

/** FROZEN island decomposition: linear bucket search per member. */
GroupDecomposition
decomposeByIsland(const ClusterTopology &topo, const DeviceSet &group)
{
    GroupDecomposition out;
    for (DeviceId d : group) {
        const std::uint32_t island = topo.islandOf(d);
        auto it = std::find_if(out.islands.begin(), out.islands.end(),
                               [island](const IslandGroup &g) {
                                   return g.island == island;
                               });
        if (it == out.islands.end()) {
            out.islands.push_back({island, {d}, d});
        } else {
            it->devices.push_back(d);
        }
    }
    std::sort(out.islands.begin(), out.islands.end(),
              [](const IslandGroup &a, const IslandGroup &b) {
                  return a.island < b.island;
              });
    out.leaders.reserve(out.islands.size());
    for (const IslandGroup &g : out.islands)
        out.leaders.push_back(g.leader);
    canonicalize(out.leaders);
    return out;
}

/** FROZEN ParameterGroupPool::build: a std::map of keys to their
 *  unionOf device groups, a std::map of groups, then the fold. */
std::vector<ParamGroup>
parameterGroups(const MetaGraph &graph, const ExecutionPlan &plan,
                const ClusterTopology *topo)
{
    struct ParamInfo
    {
        DeviceSet devices;
        double bytes = 0;
    };
    std::map<std::int64_t, ParamInfo> params;

    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const std::int64_t key = paramDedupKey(op);
                ParamInfo &info = params[key];
                info.devices = unionOf(info.devices, e.devices);
                info.bytes = std::max(info.bytes, op.paramBytes);
            }
        }
    }

    std::map<DeviceSet, ParamGroup> pool;
    for (const auto &[key, info] : params) {
        ParamGroup &g = pool[info.devices];
        g.devices = info.devices;
        g.bytes += info.bytes;
        g.numParams += 1;
    }

    std::vector<ParamGroup> groups;
    groups.reserve(pool.size());
    for (auto &[devices, group] : pool)
        groups.push_back(std::move(group));
    std::sort(groups.begin(), groups.end(),
              [](const ParamGroup &a, const ParamGroup &b) {
                  if (a.devices.size() != b.devices.size())
                      return a.devices.size() > b.devices.size();
                  return a.devices < b.devices;
              });
    std::vector<ParamGroup> fused;
    for (ParamGroup &g : groups) {
        bool folded = false;
        for (ParamGroup &host : fused) {
            if (std::includes(host.devices.begin(), host.devices.end(),
                              g.devices.begin(), g.devices.end())) {
                host.bytes += g.bytes;
                host.numParams += g.numParams;
                folded = true;
                break;
            }
        }
        if (!folded)
            fused.push_back(std::move(g));
    }

    if (topo != nullptr) {
        for (ParamGroup &g : fused) {
            g.decomp = reference::decomposeByIsland(*topo, g.devices);
            g.has_decomp = true;
        }
    }
    return fused;
}

/** FROZEN peakMemoryPerDevice: unionOf groups per key, then one
 *  hash map of per-key shares per device. */
std::vector<double>
peakMemoryPerDevice(const MetaGraph &graph, const ExecutionPlan &plan,
                    const HardwareModel &hw, const MemoryModel &mem)
{
    std::map<std::int64_t, DeviceSet> group_of;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const std::int64_t key = paramDedupKey(op);
                group_of[key] = unionOf(group_of[key], e.devices);
            }
        }
    }

    std::vector<std::unordered_map<std::int64_t, double>> params(
        plan.numDevices);
    std::vector<double> act(plan.numDevices, 0.0);
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            const ParallelConfig cfg = hw.bestConfig(memberDesc(m), e.n);
            const double act_share =
                mem.activationBytesPerDevice(m, e.numOps, cfg);
            for (DeviceId d : e.devices) {
                act[d] += act_share;
                for (std::int64_t i = 0; i < e.numOps; ++i) {
                    const OperatorDesc &op =
                        graph.base().op(m.ops[e.opBegin + i]);
                    if (op.paramBytes <= 0)
                        continue;
                    const std::int64_t key = paramDedupKey(op);
                    const double group_size =
                        static_cast<double>(group_of[key].size());
                    const double shard =
                        op.paramBytes / cfg.tp /
                        (mem.params().zeroShardParams ? cfg.dp : 1.0);
                    const double share =
                        shard + op.paramBytes * kOptimizerFactor /
                                    (mem.params().zeroShardOptimizer
                                         ? group_size
                                         : cfg.tp);
                    auto [it, inserted] = params[d].emplace(key, share);
                    if (!inserted && share > it->second)
                        it->second = share;
                }
            }
        }
    }

    std::vector<double> peak(plan.numDevices, 0.0);
    for (std::uint32_t d = 0; d < plan.numDevices; ++d) {
        peak[d] = act[d];
        for (const auto &[key, bytes] : params[d])
            peak[d] += bytes;
    }
    return peak;
}

} // namespace reference

/** What one plan exercised, summed over the plans a test checks. */
struct HolderCoverage
{
    std::size_t plans = 0;
    std::size_t multiHolderKeys = 0; ///< keys hosted by > 1 entry
    std::size_t privateKeys = 0;     ///< per-operator (negative) keys
};

/**
 * The pool of @p plan equals the frozen one byte for byte (devices,
 * bytes, numParams, island decomposition), and its memory ledger the
 * frozen one within 1e-12 relative on every device.
 */
void
expectHolderPassesMatchReference(const HardwareModel &hw,
                                 const MetaGraph &graph,
                                 const ExecutionPlan &plan,
                                 const MemoryParams &mem_params,
                                 HolderCoverage &coverage)
{
    const ClusterTopology &topo = hw.topology();
    const std::vector<ParamGroup> want =
        reference::parameterGroups(graph, plan, &topo);
    const ParameterGroupPool got =
        ParameterGroupPool::build(graph, plan, &topo);
    ASSERT_EQ(got.groups().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(strCat("group ", i));
        const ParamGroup &a = want[i];
        const ParamGroup &b = got.groups()[i];
        EXPECT_EQ(a.devices, b.devices);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.numParams, b.numParams);
        ASSERT_NE(b.decomposition(), nullptr);
        EXPECT_EQ(a.decomp.leaders, b.decomp.leaders);
        ASSERT_EQ(a.decomp.islands.size(), b.decomp.islands.size());
        for (std::size_t k = 0; k < a.decomp.islands.size(); ++k) {
            EXPECT_EQ(a.decomp.islands[k].island, b.decomp.islands[k].island);
            EXPECT_EQ(a.decomp.islands[k].devices,
                      b.decomp.islands[k].devices);
            EXPECT_EQ(a.decomp.islands[k].leader, b.decomp.islands[k].leader);
        }
    }

    const MemoryModel mem(mem_params);
    const std::vector<double> ref =
        reference::peakMemoryPerDevice(graph, plan, hw, mem);
    const std::vector<double> now = peakMemoryPerDevice(graph, plan, hw, mem);
    ASSERT_EQ(now.size(), ref.size());
    for (std::size_t d = 0; d < ref.size(); ++d)
        EXPECT_NEAR(now[d], ref[d], 1e-12 * ref[d]) << "device " << d;

    const ParamHolderIndex index = ParamHolderIndex::build(graph, plan);
    ++coverage.plans;
    for (std::size_t k = 0; k < index.rawKey.size(); ++k) {
        coverage.multiHolderKeys += index.holders[k].size() > 1;
        coverage.privateKeys += index.rawKey[k] < 0;
    }
}

/** The five systems of Fig. 8, in the paper's legend order. */
std::vector<std::unique_ptr<System>>
fig8Systems(const HardwareModel &hw)
{
    std::vector<std::unique_ptr<System>> systems;
    systems.push_back(std::make_unique<SpindleSystem>(hw));
    systems.push_back(std::make_unique<SpindleOptimusSystem>(hw));
    systems.push_back(std::make_unique<DistMMMTSystem>(hw));
    systems.push_back(
        std::make_unique<SequentialSystem>(hw, SequentialMode::Megatron));
    systems.push_back(
        std::make_unique<SequentialSystem>(hw, SequentialMode::DeepSpeed));
    return systems;
}

TEST(HolderIndexEquivalence, Fig8PointsEverySystem)
{
    // Every Fig. 8 point, under each of the five systems' plans —
    // DeepSpeed's whole-cluster replication among them.
    std::vector<std::pair<std::string, ComputationGraph>> workloads;
    for (std::uint32_t tasks : {4u, 7u, 10u})
        workloads.emplace_back(strCat("Multitask-CLIP/", tasks, "T"),
                               buildMultitaskClip({.numTasks = tasks}));
    for (std::uint32_t tasks : {4u, 7u})
        workloads.emplace_back(strCat("OFASys/", tasks, "T"),
                               buildOfasys({.numTasks = tasks}));
    workloads.emplace_back("QWen-VAL-9B", buildQwenVal({}));

    HolderCoverage coverage;
    for (const auto &[name, graph] : workloads) {
        MetaGraph meta = contractGraph(graph);
        const bool qwen = name == "QWen-VAL-9B";
        for (std::uint32_t nodes : qwen ? std::vector<std::uint32_t>{4, 8}
                                        : std::vector<std::uint32_t>{1, 2, 4}) {
            ClusterTopology topo = smallCluster(nodes);
            HardwareModel hw(topo);
            for (const auto &sys : fig8Systems(hw)) {
                SCOPED_TRACE(strCat(name, " @ ", nodes, " nodes, ",
                                    sys->name()));
                expectHolderPassesMatchReference(hw, meta,
                                                 sys->buildPlan(meta),
                                                 sys->memoryParams(),
                                                 coverage);
            }
        }
    }
    EXPECT_EQ(coverage.plans, 17u * 5u);
    EXPECT_GT(coverage.multiHolderKeys, 0u);
    EXPECT_GT(coverage.privateKeys, 0u);
}

TEST(HolderIndexEquivalence, Tab2Zero3AndIslandAware70B)
{
    PlannerOptions zero3;
    zero3.memory.zeroShardParams = true;
    HolderCoverage coverage;

    // Tab. 2: 30B and 70B QWen-VAL under ZeRO-3 on 256 GPUs.
    ClusterTopology homogeneous = smallCluster(32);
    HardwareModel hw(homogeneous);
    for (QwenValConfig::Size size :
         {QwenValConfig::Size::B30, QwenValConfig::Size::B70}) {
        SCOPED_TRACE(size == QwenValConfig::Size::B30 ? "30B" : "70B");
        ComputationGraph graph = buildQwenVal({.size = size, .batch = 128});
        MetaGraph meta = contractGraph(graph);
        PlannerOutput out = ExecutionPlanner(hw, zero3).plan(meta);
        expectHolderPassesMatchReference(hw, meta, out.plan, zero3.memory,
                                         coverage);
    }

    // The 70B model with IslandAware windows on 128 GPUs of mixed
    // 12- and 4-GPU islands: sync groups span uneven islands.
    ClusterConfig cfg;
    DeviceId next = 0;
    for (int pair = 0; pair < 8; ++pair) {
        for (std::uint32_t size : {12u, 4u}) {
            IslandSpec island;
            for (std::uint32_t i = 0; i < size; ++i)
                island.devices.push_back(next++);
            cfg.islands.push_back(std::move(island));
        }
    }
    ClusterTopology islands(cfg);
    HardwareModel island_hw(islands);
    PlannerOptions aware = zero3;
    aware.placement.windows = WindowPolicy::IslandAware;
    ComputationGraph graph =
        buildQwenVal({.size = QwenValConfig::Size::B70, .batch = 128});
    MetaGraph meta = contractGraph(graph);
    PlannerOutput out = ExecutionPlanner(island_hw, aware).plan(meta);
    {
        SCOPED_TRACE("70B IslandAware on 8 x (12 + 4)");
        expectHolderPassesMatchReference(island_hw, meta, out.plan,
                                         aware.memory, coverage);
    }
    EXPECT_GT(coverage.multiHolderKeys, 0u);
}

/**
 * A hand-built plan on 8 devices over the Fig. 3 workload, whose
 * MetaOps 1 and 3 carry the shared text keys, 4 and 5 the shared LM
 * keys, and 0 and 2 private keys. Shared keys land in entries of
 * different widths on overlapping devices, so a device holds one key
 * at two different shares (the max-dedupe path).
 */
ExecutionPlan
overlappingHolderPlan(const MetaGraph &meta)
{
    ExecutionPlan plan;
    plan.numDevices = 8;
    const auto entry = [&meta](MetaOpId m, std::int64_t begin,
                               std::int64_t end, DeviceSet devices) {
        WaveEntry e;
        e.metaOp = m;
        e.opBegin = begin;
        e.numOps = end < 0 ? static_cast<std::int64_t>(
                                 meta.metaOp(m).ops.size()) - begin
                           : end - begin;
        e.n = static_cast<std::uint32_t>(devices.size());
        e.devices = std::move(devices);
        return e;
    };
    const std::vector<std::vector<WaveEntry>> waves = {
        {entry(0, 0, -1, {0, 1}), entry(2, 0, -1, {2, 3, 4, 5})},
        {entry(1, 0, -1, {0, 1}), entry(3, 0, 2, {4, 5, 6, 7})},
        {entry(3, 2, -1, {1, 2, 3, 4})},
        {entry(4, 0, 3, {4, 5, 6, 7}), entry(5, 0, -1, {0, 1})},
        {entry(4, 3, -1, {6, 7}), entry(5, 0, -1, {0, 1, 2, 3})},
    };
    for (const auto &entries : waves) {
        Wave w;
        w.index = static_cast<std::int32_t>(plan.waves.size());
        w.entries = entries;
        plan.waves.push_back(std::move(w));
    }
    return plan;
}

TEST(HolderIndexEquivalence, HandBuiltOverlappingHolders)
{
    ComputationGraph graph = fig3Workload();
    MetaGraph meta = contractGraph(graph);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    const ExecutionPlan plan = overlappingHolderPlan(meta);

    // The scenario must hold a shared key at two different shares on
    // one device, and private keys too.
    const ParamHolderIndex index = ParamHolderIndex::build(meta, plan);
    bool overlap = false;
    for (const std::vector<ParamHolder> &hs : index.holders) {
        for (std::size_t i = 0; i < hs.size(); ++i) {
            for (std::size_t j = i + 1; j < hs.size(); ++j) {
                const WaveEntry &a = *index.entries[hs[i].entry];
                const WaveEntry &b = *index.entries[hs[j].entry];
                overlap |= a.n != b.n && intersects(a.devices, b.devices);
            }
        }
    }
    ASSERT_TRUE(overlap) << "no key held at two widths on one device";

    HolderCoverage coverage;
    for (bool shard_params : {false, true}) {
        for (bool shard_optimizer : {false, true}) {
            SCOPED_TRACE(strCat("zeroShardParams=", shard_params,
                                " zeroShardOptimizer=", shard_optimizer));
            MemoryParams mp;
            mp.zeroShardParams = shard_params;
            mp.zeroShardOptimizer = shard_optimizer;
            expectHolderPassesMatchReference(hw, meta, plan, mp, coverage);
        }
    }
    EXPECT_GT(coverage.multiHolderKeys, 0u);
    EXPECT_GT(coverage.privateKeys, 0u);
}

TEST(HolderIndexEquivalence, OutOfRangeDeviceIsNotPlaced)
{
    // The flat passes index per-device arrays by entry device ids, so
    // an id past the cluster panics instead of writing out of bounds.
    ComputationGraph graph = fig3Workload();
    MetaGraph meta = contractGraph(graph);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    ExecutionPlan plan = overlappingHolderPlan(meta);
    plan.waves.back().entries.back().devices = {0, 1, 2, 8};
    EXPECT_DEATH(peakMemoryPerDevice(meta, plan, hw, MemoryModel()),
                 "plan is not placed");
    EXPECT_DEATH(ParameterGroupPool::build(meta, plan, &topo),
                 "plan is not placed");
}

} // namespace
} // namespace spindle
