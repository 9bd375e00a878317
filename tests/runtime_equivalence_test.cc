/**
 * @file
 * Golden-reference runtime equivalence harness for the collective
 * subsystem (the PR-1/PR-2 planner methodology applied to the
 * runtime): the legacy flat-ring execution is frozen in-test, and
 * the engine with CollectiveKind::FlatRing must reproduce it bit
 * for bit — full timelines, iteration ends and exposed sync, under
 * both the StrictBarrier and Overlap dispatch policies, on all seed
 * workloads. The Hierarchical/Auto algorithms must then be strictly
 * better where the topology rewards them: lower exposed sync on
 * mixed-size island topologies, and bit-identical degeneration when
 * every sync group sits inside one island.
 *
 * Also pins the corrected overlap-mode bucketed-overlap charge
 * (regression: the credit used to be charged against the whole
 * all-reduce even when kMinSyncFraction clamping fired, undercharging
 * the clamped exposed sync).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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
        EXPECT_EQ(ra.label, rb.label) << "record " << i;
    }
}

/**
 * FROZEN pre-collective-layer reference, strict-barrier path: the
 * lockstep wave loop with per-stream clocks, boundary transmissions,
 * and the single flat-ring occupation per parameter group followed
 * by the historical exposed-sync clamp. Kept verbatim as the golden
 * oracle — do not "modernize" it along with the engine.
 */
IterationResult
frozenStrictFlatRun(const HardwareModel &hw, const MetaGraph &graph,
                    const ExecutionPlan &plan)
{
    IterationResult result;
    if (plan.waves.empty())
        return result;

    const CollectiveModel &coll = hw.collectives();
    std::vector<TransmissionOp> trans =
        buildTransmissions(graph, plan, coll);
    std::map<std::int32_t, std::vector<const TransmissionOp *>> by_dst;
    std::map<std::int32_t, std::vector<const TransmissionOp *>> by_src;
    for (const TransmissionOp &t : trans) {
        by_dst[t.dstWave].push_back(&t);
        by_src[t.srcWave].push_back(&t);
    }
    ParameterGroupPool pool = ParameterGroupPool::build(graph, plan);

    std::map<std::int32_t, std::vector<const Wave *>> streams;
    for (const Wave &w : plan.waves)
        streams[w.stream].push_back(&w);

    Simulator sim(plan.numDevices);
    std::map<std::int32_t, double> send_acc;

    auto run_phase = [&](bool forward) {
        for (auto &[stream_id, waves] : streams) {
            double clock = 0;
            for (const Wave *w : waves)
                for (const WaveEntry &e : w->entries)
                    clock = std::max(clock, sim.groupFree(e.devices));

            for (std::size_t next = 0; next < waves.size(); ++next) {
                const Wave &w = forward
                    ? *waves[next]
                    : *waves[waves.size() - 1 - next];
                double t_start = clock;
                const auto &flows =
                    forward ? by_dst[w.index] : by_src[w.index];
                for (const TransmissionOp *t : flows) {
                    DeviceSet devs =
                        unionOf(t->srcDevices, t->dstDevices);
                    double end = sim.occupy(devs, clock, t->seconds,
                                            ExecKind::Transmission, 0,
                                            t->dstMeta, "send_recv");
                    t_start = std::max(t_start, end);
                }
                send_acc[stream_id] += t_start - clock;

                double wave_end = t_start;
                for (const WaveEntry &e : w.entries) {
                    const MetaOp &m = graph.metaOp(e.metaOp);
                    const OperatorDesc desc = memberDesc(m);
                    const ParallelConfig cfg = hw.bestConfig(desc, e.n);
                    const double per_op = forward
                        ? hw.opTimeFwd(desc, cfg)
                        : hw.opTimeBwd(desc, cfg);
                    const double dur =
                        per_op * static_cast<double>(e.numOps);
                    const double flops =
                        m.flopsFwdPerOp *
                        (forward ? 1.0 : hw.params().bwdFlopsFactor) *
                        static_cast<double>(e.numOps);
                    double end = sim.occupy(e.devices, t_start, dur,
                                            ExecKind::Compute, flops,
                                            e.metaOp,
                                            forward ? "fwd" : "bwd");
                    wave_end = std::max(wave_end, end);
                }
                clock = wave_end + kWaveBarrier;
            }
        }
    };

    run_phase(/*forward=*/true);
    const double t_bwd = sim.timeline().makespan();
    run_phase(/*forward=*/false);

    const double t_sync = sim.timeline().makespan();
    const double bwd_span = t_sync - t_bwd;
    double sync_end = t_sync;
    for (const ParamGroup &g : pool.groups()) {
        if (g.devices.size() < 2)
            continue;
        const double dur = coll.allReduceTime(g.bytes, g.devices,
                                               CollectiveKind::FlatRing);
        double end = sim.occupy(g.devices, t_sync, dur, ExecKind::Sync,
                                0, -1, "param_sync");
        sync_end = std::max(sync_end, end);
    }
    const double sync_raw = sync_end - t_sync;
    const double sync_eff =
        std::clamp(sync_raw - kSyncOverlapFraction * bwd_span,
                   kMinSyncFraction * sync_raw, sync_raw);

    result.iterationSeconds = t_sync + sync_eff;
    result.breakdown.sync = sync_eff;
    double send = 0;
    for (const auto &[stream_id, acc] : send_acc)
        send = std::max(send, acc);
    result.breakdown.sendRecv = send;
    result.breakdown.fwdBwd = result.iterationSeconds -
                              result.breakdown.sync -
                              result.breakdown.sendRecv;
    result.timeline = sim.timeline();
    return result;
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

TEST(RuntimeEquivalence, FlatRingStrictBarrierMatchesFrozenReference)
{
    for (ClusterConfig cfg : {testutil::contiguousIslandConfig(2, 8),
                              testutil::stripedIslandConfig(2, 8)}) {
        ClusterTopology topo(std::move(cfg));
        HardwareModel hw(topo);
        for (const auto &[name, graph] : seedWorkloads()) {
            SCOPED_TRACE(name);
            MetaGraph meta = contractGraph(graph);
            PlannerOutput out = ExecutionPlanner(hw).plan(meta);

            EngineOptions options;
            options.collective = CollectiveKind::FlatRing;
            IterationResult frozen = frozenStrictFlatRun(hw, meta, out.plan);
            IterationResult now =
                Engine(hw, MemoryParams{}, options).run(meta, out.plan);

            EXPECT_EQ(frozen.iterationSeconds, now.iterationSeconds);
            EXPECT_EQ(frozen.breakdown.fwdBwd, now.breakdown.fwdBwd);
            EXPECT_EQ(frozen.breakdown.sync, now.breakdown.sync);
            EXPECT_EQ(frozen.breakdown.sendRecv, now.breakdown.sendRecv);
            expectIdenticalTimelines(frozen.timeline, now.timeline);
        }
    }
}

/**
 * FROZEN overlap-policy sync-tail reference: replays the flat-ring
 * group occupation (pool order, each group released at its own
 * devices' free time) on the availability ledger reconstructed from
 * the engine's own compute/transmission records, then applies the
 * frozen exposed-sync charge. Everything the collective layer may
 * influence — sync record order, start/end times, iteration end,
 * exposed sync — must match bit for bit.
 */
void
expectOverlapSyncTailMatchesReference(const HardwareModel &hw,
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
            EXPECT_EQ(r.label, "param_sync");
            free_at[d] = end;
        }
        sync_end = std::max(sync_end, end);
    }
    EXPECT_EQ(next, sync_records.size())
        << "engine scheduled extra sync records";

    // Charge bounds of the frozen overlap-mode accounting. The
    // backward span (fwd_end) is not observable from the timeline
    // alone, so the exact credit is pinned separately in
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

TEST(RuntimeEquivalence, FlatRingOverlapSyncTailMatchesFrozenReference)
{
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    for (const auto &[name, graph] : seedWorkloads()) {
        SCOPED_TRACE(name);
        MetaGraph meta = contractGraph(graph);
        PlannerOutput out = ExecutionPlanner(hw).plan(meta);

        EngineOptions options;
        options.dispatch = DispatchPolicyKind::Overlap;
        options.collective = CollectiveKind::FlatRing;
        Engine engine(hw, MemoryParams{}, options);
        IterationResult run = engine.run(meta, out.plan);
        expectOverlapSyncTailMatchesReference(hw, meta, out.plan, run);

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

        for (DispatchPolicyKind dispatch :
             {DispatchPolicyKind::StrictBarrier,
              DispatchPolicyKind::Overlap}) {
            EngineOptions flat_opt;
            flat_opt.dispatch = dispatch;
            flat_opt.collective = CollectiveKind::FlatRing;
            EngineOptions hier_opt = flat_opt;
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
}

/**
 * Mixed-size island fabric that rewards hierarchy: a 12-GPU island
 * next to a 4-GPU island, with a rail-constrained inter-island
 * collective class (one 50 GB/s rail) slower than NVLink.
 */
ClusterTopology
mixedIslandTopo()
{
    ClusterConfig cfg;
    cfg.islands.resize(2);
    for (std::uint32_t d = 0; d < 12; ++d)
        cfg.islands[0].devices.push_back(d);
    for (std::uint32_t d = 12; d < 16; ++d)
        cfg.islands[1].devices.push_back(d);
    cfg.interIslandCollective = {50 * kGiga, 10 * kMicro};
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

TEST(RuntimeEquivalence, OverlapChargePinsClampedExposedSync)
{
    // Regression (charge-order fix): under the overlap policy the
    // bucketed-overlap credit used to be charged against the whole
    // all-reduce even when kMinSyncFraction clamping fired, pinning
    // the clamped exposed sync to kMinSyncFraction * residual tail
    // instead of kMinSyncFraction * the slowest whole all-reduce.
    ComputationGraph graph = fig3Workload();
    MetaGraph meta = contractGraph(graph);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput out = ExecutionPlanner(hw).plan(meta);

    EngineOptions options;
    options.dispatch = DispatchPolicyKind::Overlap;
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

} // namespace
} // namespace spindle
