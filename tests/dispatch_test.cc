/**
 * @file
 * Tests for the event-driven execution core: dispatch must be
 * deterministic, must never be slower or expose more send/recv than
 * the lockstep wave-by-wave engine it replaced (kept below as a
 * test-only bound), and dynamic task arrivals must inject through the
 * event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/math_util.h"
#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

/**
 * Faithful reimplementation of the pre-event-core engine iteration
 * loop (lockstep wave barriers, per-stream clocks, transmissions at
 * the wave boundary, sync after the global backward end). The event
 * dispatch admits a wave as soon as its own predecessors finish, so
 * it may only match or beat this loop.
 */
IterationResult
legacyLockstepRun(const HardwareModel &hw, const MetaGraph &graph,
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

/**
 * The lockstep bound: the engine's iteration and exposed send/recv
 * never exceed the lockstep loop's on the same plan, and both
 * simulate the same work.
 */
void
expectBoundedByLockstep(const HardwareModel &hw, const MetaGraph &graph,
                        const ExecutionPlan &plan)
{
    IterationResult lockstep = legacyLockstepRun(hw, graph, plan);
    IterationResult now = Engine(hw).run(graph, plan);
    EXPECT_LE(now.iterationSeconds, lockstep.iterationSeconds);
    EXPECT_LE(now.breakdown.sendRecv, lockstep.breakdown.sendRecv);
    EXPECT_EQ(now.timeline.records().size(),
              lockstep.timeline.records().size());
    EXPECT_NEAR(now.timeline.totalFlops(), lockstep.timeline.totalFlops(),
                1e-6 * lockstep.timeline.totalFlops());
}

struct DispatchFixture : public ::testing::Test
{
    DispatchFixture()
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

TEST_F(DispatchFixture, BoundedByLegacyLockstepOnSeedWorkloads)
{
    expectBoundedByLockstep(hw, meta, out.plan);
    for (ComputationGraph g : {buildMultitaskClip({.numTasks = 4}),
                               buildOfasys({.numTasks = 4})}) {
        MetaGraph m = contractGraph(g);
        expectBoundedByLockstep(hw, m, ExecutionPlanner(hw).plan(m).plan);
    }
}

TEST_F(DispatchFixture, BoundedByLegacyLockstepOnMultiStreamPlans)
{
    // The Optimus baseline emits a multi-stream plan, which the
    // lockstep loop runs stream after stream.
    SpindleOptimusSystem optimus(hw);
    ExecutionPlan plan = optimus.buildPlan(meta);
    plan.annotateReadiness(meta);
    plan.validate(meta);
    expectBoundedByLockstep(hw, meta, plan);
}

TEST(DispatchBound, BoundedByLegacyLockstepOnFig8Points)
{
    // The Fig. 8 CLIP and OFASys points at 8-32 GPUs, Spindle's plans.
    std::vector<std::pair<std::string, ComputationGraph>> workloads;
    for (std::uint32_t tasks : {4u, 7u, 10u})
        workloads.emplace_back(strCat("Multitask-CLIP/", tasks, "T"),
                               buildMultitaskClip({.numTasks = tasks}));
    for (std::uint32_t tasks : {4u, 7u})
        workloads.emplace_back(strCat("OFASys/", tasks, "T"),
                               buildOfasys({.numTasks = tasks}));
    for (const auto &[name, g] : workloads) {
        MetaGraph m = contractGraph(g);
        for (std::uint32_t nodes : {1u, 2u, 4u}) {
            SCOPED_TRACE(strCat(name, " @ ", nodes * 8, " GPUs"));
            ClusterTopology topo = smallCluster(nodes);
            HardwareModel hw(topo);
            expectBoundedByLockstep(hw, m, ExecutionPlanner(hw).plan(m).plan);
        }
    }
}

TEST_F(DispatchFixture, DispatchIsDeterministic)
{
    Engine engine(hw);
    IterationResult a = engine.run(meta, out.plan);
    IterationResult b = engine.run(meta, out.plan);
    EXPECT_EQ(a.iterationSeconds, b.iterationSeconds);
    expectIdenticalTimelines(a.timeline, b.timeline);
}

TEST_F(DispatchFixture, StrictlyReducesExposedCommOnSeedWorkload)
{
    // Fig. 10 acceptance: exposed send/recv + sync is strictly lower
    // than under lockstep (fwd/bwd-serialized) execution on a seed
    // workload.
    ComputationGraph clip = buildMultitaskClip({.numTasks = 10});
    MetaGraph m = contractGraph(clip);
    PlannerOutput o = ExecutionPlanner(hw).plan(m);
    IterationResult lockstep = legacyLockstepRun(hw, m, o.plan);
    IterationResult now = Engine(hw).run(m, o.plan);
    EXPECT_LT(now.breakdown.sendRecv + now.breakdown.sync,
              lockstep.breakdown.sendRecv + lockstep.breakdown.sync);
}

TEST_F(DispatchFixture, ReadinessEdgesCoverDataAndDeviceOrder)
{
    const auto preds = computeWaveReadiness(meta, out.plan.waves);
    ASSERT_EQ(preds.size(), out.plan.waves.size());
    // Every transmission's producer wave is a readiness predecessor
    // of its consumer wave.
    const auto trans =
        buildTransmissions(meta, out.plan, hw.collectives());
    for (const TransmissionOp &t : trans) {
        const auto &p = preds[static_cast<std::size_t>(t.dstWave)];
        EXPECT_TRUE(std::binary_search(p.begin(), p.end(), t.srcWave))
            << "wave " << t.dstWave << " misses producer " << t.srcWave;
    }
    // Consecutive waves sharing a device are ordered.
    for (std::size_t i = 1; i < out.plan.waves.size(); ++i) {
        for (const WaveEntry &a : out.plan.waves[i - 1].entries) {
            for (const WaveEntry &b : out.plan.waves[i].entries) {
                if (!intersects(a.devices, b.devices))
                    continue;
                EXPECT_TRUE(std::binary_search(
                    preds[i].begin(), preds[i].end(),
                    static_cast<std::int32_t>(i - 1)));
            }
        }
    }
}

TEST_F(DispatchFixture, DynamicArrivalAfterBaseCompletes)
{
    // An arrival scheduled after the base iteration finishes must
    // run exactly like a standalone iteration shifted in time.
    Engine engine(hw);
    IterationResult base = engine.run(meta, out.plan);
    IterationResult alone = engine.run(meta, out.plan);

    const double t_arr = 2.0 * base.iterationSeconds;
    std::vector<double> ends;
    IterationResult combined = engine.runDynamic(
        meta, out.plan, {{t_arr, &meta, &out.plan}}, &ends);

    ASSERT_EQ(ends.size(), 1u);
    EXPECT_NEAR(ends[0], t_arr + alone.iterationSeconds,
                1e-9 * ends[0]);
    EXPECT_EQ(combined.timeline.records().size(),
              2 * base.timeline.records().size());
    // The base prefix is untouched by the later arrival.
    EXPECT_EQ(combined.iterationSeconds, ends[0]);
    EXPECT_EQ(combined.breakdown.sync, base.breakdown.sync);
    // No arrival record starts before the arrival time: everything
    // past the base's makespan belongs to the injected task.
    for (const ExecRecord &r : combined.timeline.records())
        EXPECT_TRUE(r.start < base.timeline.makespan() + 1e-12 ||
                    r.start >= t_arr);
}

TEST_F(DispatchFixture, MidIterationArrivalThroughEventQueue)
{
    Engine engine(hw);
    IterationResult base = engine.run(meta, out.plan);

    // A second task joins at 30% of the base iteration — no
    // replan, injected through a scheduled event.
    const double t_arr = 0.3 * base.iterationSeconds;
    std::vector<double> ends;
    IterationResult combined = engine.runDynamic(
        meta, out.plan, {{t_arr, &meta, &out.plan}}, &ends);

    ASSERT_EQ(ends.size(), 1u);
    EXPECT_GE(ends[0], t_arr);
    EXPECT_GE(combined.iterationSeconds, base.iterationSeconds);
    EXPECT_EQ(combined.timeline.records().size(),
              2 * base.timeline.records().size());
    // Contention can only delay the base iteration's end.
    EXPECT_GE(combined.timeline.makespan(),
              base.timeline.makespan());

    // Injection is deterministic.
    std::vector<double> ends2;
    IterationResult again = engine.runDynamic(
        meta, out.plan, {{t_arr, &meta, &out.plan}}, &ends2);
    EXPECT_EQ(ends, ends2);
    expectIdenticalTimelines(combined.timeline, again.timeline);
}

TEST_F(DispatchFixture, OutOfOrderArrivalsMatchSortedArrivals)
{
    // The arrival list is caller-supplied and unordered; dispatch
    // stably sorts by arrival time, so a permutation of the list
    // must produce the identical simulation — with per-arrival
    // completion times still reported in the caller's input order.
    Engine engine(hw);
    IterationResult base = engine.run(meta, out.plan);
    const double t1 = 0.2 * base.iterationSeconds;
    const double t2 = 0.5 * base.iterationSeconds;

    std::vector<double> sorted_ends;
    IterationResult sorted = engine.runDynamic(
        meta, out.plan,
        {{t1, &meta, &out.plan}, {t2, &meta, &out.plan}},
        &sorted_ends);

    std::vector<double> reversed_ends;
    IterationResult reversed = engine.runDynamic(
        meta, out.plan,
        {{t2, &meta, &out.plan}, {t1, &meta, &out.plan}},
        &reversed_ends);

    ASSERT_EQ(sorted_ends.size(), 2u);
    ASSERT_EQ(reversed_ends.size(), 2u);
    // Same simulation, input-order reporting.
    EXPECT_EQ(sorted_ends[0], reversed_ends[1]);
    EXPECT_EQ(sorted_ends[1], reversed_ends[0]);
    EXPECT_EQ(sorted.iterationSeconds, reversed.iterationSeconds);
    expectIdenticalTimelines(sorted.timeline, reversed.timeline);
}

TEST_F(DispatchFixture, ArrivalOnDifferentClusterIsRejected)
{
    Engine engine(hw);
    ExecutionPlan other = out.plan;
    other.numDevices += 1;
    EXPECT_DEATH(
        engine.runDynamic(meta, out.plan, {{0.1, &meta, &other}}),
        "different cluster");
}

TEST_F(DispatchFixture, ArrivalsWithEmptyBasePlanAreRejected)
{
    // Injected work must never be silently dropped: with no base
    // plan there is no simulator to dispatch the arrivals on.
    Engine engine(hw);
    ExecutionPlan empty;
    empty.numDevices = out.plan.numDevices;
    EXPECT_DEATH(
        engine.runDynamic(meta, empty, {{0.1, &meta, &out.plan}}),
        "empty base plan");
}

// ===================================================================
// Fault injection through the dispatcher
// ===================================================================

/** A two-half-cluster fixture: the base plan runs on island 0
 *  (devices 0-7), the injectable arrival plan on island 1 (8-15), so
 *  faults can hit one without touching the other. */
struct FaultedArrivalFixture : public ::testing::Test
{
    FaultedArrivalFixture()
        : graph(fig3Workload()), meta(contractGraph(graph)),
          topo(smallCluster(2)), hw(topo)
    {
        ClusterTopology half = smallCluster(1);
        HardwareModel half_hw(half);
        ExecutionPlanner planner(half_hw);
        base = planner.plan(meta).plan;
        base.numDevices = topo.numDevices();

        shifted = base;
        for (Wave &w : shifted.waves)
            for (WaveEntry &e : w.entries)
                for (DeviceId &d : e.devices)
                    d += 8;
    }

    ComputationGraph graph;
    MetaGraph meta;
    ClusterTopology topo;
    HardwareModel hw;
    ExecutionPlan base;    ///< island 0 only
    ExecutionPlan shifted; ///< same plan on island 1
};

TEST_F(FaultedArrivalFixture, ArrivalOnFailedDeviceIsStructuredError)
{
    // Device 12 (idle in the base plan) dies before the arrival that
    // is placed on it: the iteration keeps running, and the arrival
    // is refused with an actionable error instead of a panic.
    Engine engine(hw);
    const double makespan = engine.run(meta, base).iterationSeconds;

    std::vector<double> ends;
    const FaultedIterationResult fr = engine.runWithFaults(
        meta, base, {{0.1 * makespan, {12}}},
        {{0.5 * makespan, &meta, &shifted}}, &ends);

    EXPECT_TRUE(fr.completed);
    EXPECT_EQ(fr.failedDevices, DeviceSet{12});
    ASSERT_EQ(fr.arrivalErrors.size(), 1u);
    EXPECT_EQ(fr.arrivalErrors[0].index, 0u);
    EXPECT_NE(fr.arrivalErrors[0].message.find("12"),
              std::string::npos);
    EXPECT_NE(fr.arrivalErrors[0].message.find("replan"),
              std::string::npos);
    // The refused arrival's end slot keeps input-order alignment.
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0], -1.0);
    // The base iteration was unaffected.
    EXPECT_DOUBLE_EQ(fr.result.iterationSeconds, makespan);
}

TEST_F(FaultedArrivalFixture, FaultOnStartedArrivalHalts)
{
    // Same fault, but the arrival started *before* the device died:
    // now in-flight work is hit and the iteration must abort.
    Engine engine(hw);
    const double makespan = engine.run(meta, base).iterationSeconds;

    const double t_arr = 0.1 * makespan;
    const double t_f = 0.5 * makespan;
    const FaultedIterationResult fr = engine.runWithFaults(
        meta, base, {{t_f, {12}}}, {{t_arr, &meta, &shifted}});

    ASSERT_FALSE(fr.completed);
    EXPECT_DOUBLE_EQ(fr.failureTime, t_f);
    EXPECT_TRUE(fr.arrivalErrors.empty());
    EXPECT_GT(fr.lostWorkSeconds, 0);
    EXPECT_LE(fr.result.timeline.makespan(), t_f);
}

TEST_F(FaultedArrivalFixture, FaultOnIdleDevicesNeverDisturbsTheRun)
{
    // Killing island 1 mid-iteration while only island 0 works:
    // bit-identical timeline to the fault-free run.
    Engine engine(hw);
    const IterationResult clean = engine.run(meta, base);
    const FaultedIterationResult fr = engine.runWithFaults(
        meta, base,
        {{0.3 * clean.iterationSeconds, {8, 9, 10, 11, 12, 13, 14, 15}}});
    EXPECT_TRUE(fr.completed);
    EXPECT_EQ(fr.failedDevices.size(), 8u);
    EXPECT_DOUBLE_EQ(fr.result.iterationSeconds,
                     clean.iterationSeconds);
    expectIdenticalTimelines(clean.timeline, fr.result.timeline);
}

TEST_F(FaultedArrivalFixture, ReservationOnFailedDevicePanics)
{
    // The simulator's last line of defense: if a dispatcher ever
    // reaches occupy() with a dead device, the process aborts.
    Simulator sim(4);
    sim.failDevices({2});
    EXPECT_DEATH(sim.occupy({1, 2}, 0, 1.0, ExecKind::Compute, 0, -1,
                            "doomed"),
                 "device 2 failed");
}

} // namespace
} // namespace spindle
