/**
 * @file
 * End-to-end tests for the execution planner (§3.2-§3.5 pipeline):
 * validity, optimality gap against the Theorem 1 bound (Fig. 11),
 * and planning cost (Fig. 12).
 */

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <thread>

#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

TEST(Planner, ProducesValidatedPlanWithCurves)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    EXPECT_EQ(out.curves.size(), meta.numMetaOps());
    EXPECT_GT(out.plan.theoreticalOptimum, 0);
    EXPECT_GE(out.plan.estimatedSpan, out.plan.theoreticalOptimum * 0.99);
    EXPECT_GT(out.planningSeconds, 0);
}

TEST(Planner, PlanningCompletesWithinPaperBudget)
{
    // Fig. 12: execution planning stays below 3 seconds.
    ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(4);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    EXPECT_LT(out.planningSeconds, 3.0);
}

TEST(Planner, DeterministicPlans)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput a = planner.plan(meta);
    PlannerOutput b = planner.plan(meta);
    EXPECT_DOUBLE_EQ(a.plan.estimatedSpan, b.plan.estimatedSpan);
    ASSERT_EQ(a.plan.waves.size(), b.plan.waves.size());
    for (std::size_t i = 0; i < a.plan.waves.size(); ++i)
        EXPECT_EQ(a.plan.waves[i].entries[0].devices,
                  b.plan.waves[i].entries[0].devices);
}

TEST(Planner, PlanStrMentionsEveryWave)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    std::string s = out.plan.str(meta);
    for (const Wave &w : out.plan.waves)
        EXPECT_NE(s.find(strCat("wave ", w.index)), std::string::npos);
}

/**
 * Fig. 11 property: across workloads and cluster sizes, the planned
 * compute span stays close to the continuous-relaxation optimum C~*.
 * The paper reports <= 7% on its workloads; we allow extra headroom
 * for the sparser valid-allocation grids of power-of-two batches.
 */
class OptimalityGap
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>>
{
};

TEST_P(OptimalityGap, EstimatedSpanNearTheorem1Bound)
{
    auto [tasks, nodes] = GetParam();
    ComputationGraph g =
        buildMultitaskClip({.numTasks = static_cast<std::uint32_t>(tasks)});
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(nodes);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    const double gap =
        out.plan.estimatedSpan / out.plan.theoreticalOptimum;
    EXPECT_GE(gap, 1.0 - 1e-9);
    EXPECT_LE(gap, 1.30);
}

INSTANTIATE_TEST_SUITE_P(
    ClipSweep, OptimalityGap,
    ::testing::Combine(::testing::Values(4, 7, 10),
                       ::testing::Values(2u, 4u)));

/** The planner remains valid across every workload/cluster combo. */
class PlannerSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>>
{
};

TEST_P(PlannerSweep, PlanValidatesAndCoversAllOps)
{
    auto [model, nodes] = GetParam();
    ComputationGraph g = model == 0
        ? buildMultitaskClip({.numTasks = 7})
        : (model == 1 ? buildOfasys({.numTasks = 7}) : buildQwenVal({}));
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(nodes);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    PlannerOutput out = planner.plan(meta);
    out.plan.validate(meta);
    EXPECT_EQ(out.plan.numDevices, topo.numDevices());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PlannerSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u, 4u)));

// ===================================================================
// Plan cache: topology-context invalidation and sharing
// (the byte-identity of replan() itself is pinned exhaustively in
// planner_equivalence_test; these cover the cache-key semantics)
// ===================================================================

/** Light byte comparison: spans, wave shapes, device choices. */
void
expectSameBytes(const PlannerOutput &a, const PlannerOutput &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.plan.estimatedSpan),
              std::bit_cast<std::uint64_t>(b.plan.estimatedSpan));
    ASSERT_EQ(a.plan.waves.size(), b.plan.waves.size());
    for (std::size_t w = 0; w < a.plan.waves.size(); ++w) {
        ASSERT_EQ(a.plan.waves[w].entries.size(),
                  b.plan.waves[w].entries.size());
        for (std::size_t i = 0; i < a.plan.waves[w].entries.size();
             ++i) {
            const WaveEntry &x = a.plan.waves[w].entries[i];
            const WaveEntry &y = b.plan.waves[w].entries[i];
            EXPECT_EQ(x.metaOp, y.metaOp);
            EXPECT_EQ(x.n, y.n);
            EXPECT_EQ(x.devices, y.devices);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(x.duration),
                      std::bit_cast<std::uint64_t>(y.duration));
        }
    }
}

/** Contiguous islands of the given (possibly mixed) sizes. */
ClusterConfig
islandSplit(const std::vector<std::uint32_t> &sizes)
{
    ClusterConfig cfg;
    std::uint32_t next = 0;
    for (std::uint32_t size : sizes) {
        IslandSpec island;
        for (std::uint32_t d = 0; d < size; ++d)
            island.devices.push_back(next++);
        cfg.islands.push_back(std::move(island));
    }
    return cfg;
}

TEST(Planner, TopologyFingerprintHashesResolvedState)
{
    // Shorthand 2x8 and the equivalent explicit island list resolve
    // to the same state, hence the same fingerprint.
    ClusterConfig shorthand;
    shorthand.numNodes = 2;
    shorthand.gpusPerNode = 8;
    EXPECT_EQ(ClusterTopology(shorthand).fingerprint(),
              ClusterTopology(islandSplit({8, 8})).fingerprint());

    // Same 16 GPUs, different island split.
    EXPECT_NE(ClusterTopology(shorthand).fingerprint(),
              ClusterTopology(islandSplit({6, 10})).fingerprint());

    // Same split, one island pair's link classes overridden.
    ClusterConfig overridden = islandSplit({8, 8});
    overridden.islandLinks.push_back(
        {0, 1, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});
    EXPECT_NE(ClusterTopology(islandSplit({8, 8})).fingerprint(),
              ClusterTopology(overridden).fingerprint());

    // Same fabric, halved HBM.
    ClusterConfig smaller_hbm = shorthand;
    smaller_hbm.device.memoryBytes /= 2;
    EXPECT_NE(ClusterTopology(shorthand).fingerprint(),
              ClusterTopology(smaller_hbm).fingerprint());
}

TEST(Planner, PlanCacheInvalidatedByTopologyContext)
{
    // One externally owned cache shared by planners on three
    // topologies, and on cluster A under other HardwareParams (what
    // PlanService::submitWithCluster does across tenants): results
    // cached in one context must never leak into another, and
    // foreign contexts must not evict the original entry.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    PlanCache cache;
    PlannerOptions options;
    options.cache = &cache;

    ClusterConfig cfg_a;
    cfg_a.numNodes = 2;
    cfg_a.gpusPerNode = 8;
    ClusterConfig cfg_b = islandSplit({6, 10});
    ClusterConfig cfg_c = islandSplit({8, 8});
    cfg_c.islandLinks.push_back(
        {0, 1, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});

    ClusterTopology topo_a(cfg_a);
    ClusterTopology topo_b(cfg_b);
    ClusterTopology topo_c(cfg_c);
    HardwareModel hw_a(topo_a);
    HardwareModel hw_b(topo_b);
    HardwareModel hw_c(topo_c);
    ExecutionPlanner pa(hw_a, options);
    ExecutionPlanner pb(hw_b, options);
    ExecutionPlanner pc(hw_c, options);
    HardwareParams slow;
    slow.kernelLaunch *= 100;
    HardwareModel hw_slow(topo_a, slow);
    ExecutionPlanner pd(hw_slow, options);

    EXPECT_FALSE(pa.replan(meta).replan.fullHit); // cold
    EXPECT_TRUE(pa.replan(meta).replan.fullHit);  // warm on A

    EXPECT_FALSE(pb.replan(meta).replan.fullHit); // other split
    EXPECT_FALSE(pc.replan(meta).replan.fullHit); // link override
    PlannerOutput on_slow = pd.replan(meta);      // A, other params
    EXPECT_FALSE(on_slow.replan.fullHit);
    expectSameBytes(pd.plan(meta), on_slow);

    PlannerOutput warm = pa.replan(meta); // A's entry survived
    EXPECT_TRUE(warm.replan.fullHit);
    expectSameBytes(pa.plan(meta), warm);

    EXPECT_EQ(cache.stats().fullHits, 2u);
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(Planner, PlanCacheHitsOnPermutedEquivalentWorkload)
{
    // Two value-identical tasks declared in swapped order under
    // different names: the positional signature is unchanged, so
    // the permuted graph is a full hit — and the remapped plan
    // matches a from-scratch plan of that exact graph.
    auto build = [](bool swapped) {
        WorkloadBuilder b;
        auto add_task = [&b](const std::string &name) {
            const std::int32_t t = b.addTask(name);
            NodeRange enc = b.addModule(
                t, transformerStack(name + ".audio", OpType::Audio, 32,
                                    229, 768, 3));
            NodeRange head = b.addModule(
                t, transformerStack(name + ".lm", OpType::LM, 32, 512,
                                    1024, 4));
            b.addFlow(enc, head);
        };
        if (swapped) {
            add_task("beta");
            add_task("alpha");
        } else {
            add_task("alpha");
            add_task("beta");
        }
        return b.build();
    };
    ComputationGraph g1 = build(false);
    ComputationGraph g2 = build(true);
    MetaGraph m1 = contractGraph(g1);
    MetaGraph m2 = contractGraph(g2);

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);
    EXPECT_FALSE(planner.replan(m1).replan.fullHit);
    PlannerOutput hit = planner.replan(m2);
    EXPECT_TRUE(hit.replan.fullHit);
    expectSameBytes(planner.plan(m2), hit);
}

TEST(Planner, PlanCacheSharedAcrossPlanners)
{
    // An externally owned cache lets a fresh planner instance on the
    // same cluster reuse plans cached by a previous one (the
    // SpindleSystem lifecycle across dynamic arrivals).
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);

    PlanCache cache;
    PlannerOptions options;
    options.cache = &cache;

    ExecutionPlanner first(hw, options);
    EXPECT_FALSE(first.replan(meta).replan.fullHit);

    ExecutionPlanner second(hw, options);
    PlannerOutput hit = second.replan(meta);
    EXPECT_TRUE(hit.replan.fullHit);
    expectSameBytes(second.plan(meta), hit);
}

TEST(Planner, EveryFingerprintedOptionSeparatesCacheContexts)
{
    // Each field the options fingerprint mixes into the cache context
    // can change planned bytes. A planner differing from the default
    // in any one of them shares the default planner's cache, but must
    // not full-hit the plan the default planner stored.
    using Edit = std::function<void(PlannerOptions &)>;
    const std::vector<std::pair<const char *, Edit>> variants = {
        {"estimator.piecewise",
         [](PlannerOptions &o) { o.estimator.piecewise = false; }},
        {"allocator.bisectionRelTol",
         [](PlannerOptions &o) { o.allocator.bisectionRelTol *= 10; }},
        {"allocator.maxBisectionIters",
         [](PlannerOptions &o) { o.allocator.maxBisectionIters /= 2; }},
        {"scheduler.extendResources",
         [](PlannerOptions &o) { o.scheduler.extendResources = false; }},
        {"placement.strategy",
         [](PlannerOptions &o) {
             o.placement.strategy = PlacementStrategy::Sequential;
         }},
        {"placement.windows",
         [](PlannerOptions &o) {
             o.placement.windows = WindowPolicy::IslandAware;
         }},
        {"placement.memoryWeight",
         [](PlannerOptions &o) { o.placement.memoryWeight *= 2; }},
        {"memory.zeroShardOptimizer",
         [](PlannerOptions &o) { o.memory.zeroShardOptimizer = false; }},
        {"memory.zeroShardParams",
         [](PlannerOptions &o) { o.memory.zeroShardParams = true; }},
    };

    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlanCache cache;
    PlannerOptions defaults;
    defaults.cache = &cache;
    const ExecutionPlanner reference(hw, defaults);
    ASSERT_FALSE(reference.replan(meta).replan.fullHit);
    ASSERT_TRUE(reference.replan(meta).replan.fullHit);

    for (const auto &[field, edit] : variants) {
        PlannerOptions options = defaults;
        edit(options);
        const PlannerOutput out = ExecutionPlanner(hw, options).replan(meta);
        EXPECT_FALSE(out.replan.fullHit) << field;
    }
}

TEST(Planner, AllocationMemoServesEvictedPlan)
{
    // The curve and allocation memos outlive the bounded plan tier:
    // once A's plan is evicted, replanning A misses the plan tier but
    // still serves every curve and every level allocation from the
    // memos — and the result is byte-identical to plan(A).
    ComputationGraph ga = fig3Workload();
    ComputationGraph gb = fig3Workload(/*batch=*/64);
    MetaGraph a = contractGraph(ga);
    MetaGraph b = contractGraph(gb);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);

    PlanCache cache(/*max_plans_per_context=*/1);
    PlannerOptions options;
    options.cache = &cache;
    ExecutionPlanner planner(hw, options);

    EXPECT_FALSE(planner.replan(a).replan.fullHit);
    EXPECT_FALSE(planner.replan(b).replan.fullHit); // evicts A
    EXPECT_EQ(cache.stats().evictions, 1u);

    const PlannerOutput again = planner.replan(a);
    EXPECT_FALSE(again.replan.fullHit);
    EXPECT_EQ(again.replan.allocHits, a.numLevels());
    EXPECT_EQ(again.replan.allocMisses, 0u);
    EXPECT_EQ(again.replan.curveHits, a.numMetaOps());
    EXPECT_EQ(again.replan.curveMisses, 0u);
    expectSameBytes(planner.plan(a), again);
}

TEST(Planner, MemoCountersCountInGraphRepeatsAsHits)
{
    // Multitask-CLIP tasks share encoder shapes, so a cold replan
    // meets curve keys an earlier MetaOp of the same graph missed
    // on. Those count as hits, and every lookup is counted once.
    ComputationGraph g = buildMultitaskClip({.numTasks = 6});
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);

    PlanCache cache;
    PlannerOptions options;
    options.cache = &cache;
    ExecutionPlanner planner(hw, options);
    const PlannerOutput out = planner.replan(meta);
    expectSameBytes(planner.plan(meta), out);
    const ReplanStats &cold = out.replan;
    EXPECT_GT(cold.curveHits, 0u);
    EXPECT_EQ(cold.curveHits + cold.curveMisses, meta.numMetaOps());
    EXPECT_EQ(cold.allocHits + cold.allocMisses, meta.numLevels());
}

TEST(Planner, PhaseSecondsIncludeFinalizeAndStayWithinTotal)
{
    // The pipeline times every stage in one place: finalize
    // (readiness + validation) is charged on every path, full hits
    // included, and the phases never add up to more than the total.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);

    const PlannerOutput cold = planner.replan(meta);
    const PlannerOutput warm = planner.replan(meta);
    const PlannerOutput fresh = planner.plan(meta);
    ASSERT_TRUE(warm.replan.fullHit);
    for (const PlannerOutput *out : {&cold, &warm, &fresh}) {
        const PlannerPhaseSeconds &p = out->phaseSeconds;
        EXPECT_GT(p.finalize, 0);
        EXPECT_LE(p.estimation + p.allocation + p.scheduling +
                      p.placement + p.finalize + p.diff,
                  out->planningSeconds);
    }
    EXPECT_GT(cold.phaseSeconds.diff, 0);
    EXPECT_EQ(fresh.phaseSeconds.diff, 0);
    EXPECT_STREQ(plannerPhaseName(4), "finalize");
}

// ===================================================================
// Plan cache under degraded (post-failure) topologies
// ===================================================================

TEST(Planner, PlanCacheReHitsRecurringDegradedShape)
{
    // The elastic-recovery contract: losing device 3, then later
    // losing device 4 instead, leaves the same surviving island
    // shape (7+8 contiguous GPUs) — the second episode's replan must
    // be a full hit on the first one's cached entry, while a failure
    // in the *other* island (8+7) is a distinct context and misses.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);

    PlanCache cache;
    PlannerOptions options;
    options.cache = &cache;

    ClusterTopology surv_a(topo.withoutDevices({3}).config);
    ClusterTopology surv_b(topo.withoutDevices({4}).config);
    ClusterTopology surv_c(topo.withoutDevices({11}).config);
    ASSERT_EQ(surv_a.fingerprint(), surv_b.fingerprint());
    ASSERT_NE(surv_a.fingerprint(), surv_c.fingerprint());

    HardwareModel hw_a(surv_a);
    HardwareModel hw_b(surv_b);
    HardwareModel hw_c(surv_c);
    ExecutionPlanner pa(hw_a, options);
    ExecutionPlanner pb(hw_b, options);
    ExecutionPlanner pc(hw_c, options);

    EXPECT_FALSE(pa.replan(meta).replan.fullHit); // first episode
    PlannerOutput hit = pb.replan(meta);          // same shape
    EXPECT_TRUE(hit.replan.fullHit);
    expectSameBytes(pb.plan(meta), hit);
    EXPECT_FALSE(pc.replan(meta).replan.fullHit); // other island

    // The healthy cluster is yet another context: no leakage from
    // degraded entries.
    HardwareModel hw_full(topo);
    ExecutionPlanner pf(hw_full, options);
    EXPECT_FALSE(pf.replan(meta).replan.fullHit);
    EXPECT_EQ(cache.stats().fullHits, 1u);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(Planner, DegradedReplanByteIdenticalToPlan)
{
    // Replans on a surviving topology must be byte-identical to a
    // from-scratch plan, and planning twice must agree — recovery
    // must not trade determinism for speed. Kill devices in both
    // islands so the surviving shape (6+7) has no symmetry to hide
    // behind.
    ComputationGraph g = buildMultitaskClip({.numTasks = 3});
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    ClusterTopology surv(topo.withoutDevices({2, 5, 9}).config);
    ASSERT_EQ(surv.numDevices(), 13u);
    HardwareModel hw(surv);

    ExecutionPlanner baseline(hw);
    PlannerOutput want = baseline.plan(meta);
    want.plan.validate(meta); // panics if invalid

    ExecutionPlanner planner(hw);
    expectSameBytes(planner.plan(meta), want);
    // replan() (the recovery path) stays pinned to plan() too.
    expectSameBytes(planner.replan(meta), want);
}

// ===================================================================
// Plan cache under concurrent replans (PlanService substrate)
// ===================================================================

TEST(Planner, PlanCacheSafeUnderConcurrentReplans)
{
    // The PlanService contract at the planner layer: N threads, each
    // with a private planner, replan a mix of workloads through ONE
    // shared PlannerOptions::cache at the same time. Every output
    // must be byte-identical to the serial reference, and the exact
    // counters must balance — racing misses may both compute (both
    // count as misses) but dedupe on store, so hits + misses must
    // equal the number of replans and hits must meet the floor that
    // dedupe guarantees. Runs under TSan in CI (tsan-planner job).
    std::vector<ComputationGraph> graphs;
    graphs.push_back(fig3Workload());
    graphs.push_back(buildMultitaskClip({.numTasks = 3}));
    graphs.push_back(fig3Workload(/*batch=*/64));
    std::vector<MetaGraph> metas;
    for (const ComputationGraph &g : graphs)
        metas.push_back(contractGraph(g));

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    const ExecutionPlanner reference(hw);
    std::vector<PlannerOutput> want;
    for (const MetaGraph &meta : metas)
        want.push_back(reference.plan(meta));

    PlanCache cache;
    PlannerOptions options;
    options.cache = &cache;

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRounds = 3;
    std::vector<std::vector<PlannerOutput>> results(kThreads);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                // One planner per thread (plan() itself is not
                // thread-safe); only the cache is shared.
                ExecutionPlanner planner(hw, options);
                for (std::size_t r = 0; r < kRounds; ++r)
                    for (std::size_t m = 0; m < metas.size(); ++m)
                        results[t].push_back(planner.replan(
                            metas[(t + r + m) % metas.size()]));
            });
        for (std::thread &th : threads)
            th.join();
    }

    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(results[t].size(), kRounds * metas.size());
        std::size_t i = 0;
        for (std::size_t r = 0; r < kRounds; ++r)
            for (std::size_t m = 0; m < metas.size(); ++m, ++i) {
                SCOPED_TRACE(strCat("thread ", t, " result ", i));
                expectSameBytes(
                    results[t][i],
                    want[(t + r + m) % metas.size()]);
            }
    }

    const PlanCache::Stats stats = cache.stats();
    const std::uint64_t replans = kThreads * kRounds * metas.size();
    EXPECT_EQ(stats.fullHits + stats.misses, replans);
    // At most one miss per (workload, racing thread); everything
    // after the first round is warm for sure.
    EXPECT_LE(stats.misses, metas.size() * kThreads);
    EXPECT_GE(stats.fullHits, replans - metas.size() * kThreads);
    EXPECT_EQ(stats.evictions, 0u);
}

} // namespace
} // namespace spindle
