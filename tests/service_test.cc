/**
 * @file
 * PlanService tests: the multi-tenant front end must keep every
 * response byte-identical to a serial ExecutionPlanner::plan() on the
 * same inputs, account cross-request dedupe exactly, isolate
 * malformed requests as structured PlanErrors, and expose the
 * spider-style job lifecycle (queued/running/terminal, cancel).
 *
 * The concurrency cases double as the TSan pin of the service layer
 * (ci: tsan-planner job).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <vector>

#include "baselines/spindle_system.h"
#include "service/plan_service.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;
using testutil::smallCluster;

PlanServiceOptions
serviceOpts(std::uint32_t workers, std::size_t queue_capacity = 256)
{
    PlanServiceOptions options;
    options.workers = workers;
    options.queueCapacity = queue_capacity;
    return options;
}

/** Exact bit-pattern double equality. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Full byte comparison of two planner responses (waves, entries,
 *  allocations, placement) — the service equivalence contract. */
void
expectOutputsIdentical(const PlannerOutput &ref, const PlannerOutput &got)
{
    EXPECT_EQ(ref.plan.numDevices, got.plan.numDevices);
    EXPECT_TRUE(sameBits(ref.plan.estimatedSpan, got.plan.estimatedSpan));
    EXPECT_TRUE(sameBits(ref.plan.theoreticalOptimum,
                         got.plan.theoreticalOptimum));

    ASSERT_EQ(ref.plan.waves.size(), got.plan.waves.size());
    for (std::size_t i = 0; i < ref.plan.waves.size(); ++i) {
        const Wave &rw = ref.plan.waves[i];
        const Wave &gw = got.plan.waves[i];
        SCOPED_TRACE(strCat("wave ", i));
        EXPECT_EQ(rw.index, gw.index);
        EXPECT_EQ(rw.level, gw.level);
        EXPECT_EQ(rw.stream, gw.stream);
        EXPECT_EQ(rw.predecessors, gw.predecessors);
        EXPECT_TRUE(sameBits(rw.start, gw.start));
        EXPECT_TRUE(sameBits(rw.duration, gw.duration));
        ASSERT_EQ(rw.entries.size(), gw.entries.size());
        for (std::size_t j = 0; j < rw.entries.size(); ++j) {
            const WaveEntry &re = rw.entries[j];
            const WaveEntry &ge = gw.entries[j];
            SCOPED_TRACE(strCat("entry ", j));
            EXPECT_EQ(re.metaOp, ge.metaOp);
            EXPECT_EQ(re.n, ge.n);
            EXPECT_EQ(re.opBegin, ge.opBegin);
            EXPECT_EQ(re.numOps, ge.numOps);
            EXPECT_TRUE(sameBits(re.duration, ge.duration));
            EXPECT_EQ(re.devices, ge.devices);
        }
    }

    ASSERT_EQ(ref.plan.allocations.size(), got.plan.allocations.size());
    for (std::size_t k = 0; k < ref.plan.allocations.size(); ++k) {
        const LevelAllocation &ra = ref.plan.allocations[k];
        const LevelAllocation &ga = got.plan.allocations[k];
        SCOPED_TRACE(strCat("level ", k));
        EXPECT_EQ(ra.metaOps, ga.metaOps);
        EXPECT_TRUE(sameBits(ra.continuous.cStar, ga.continuous.cStar));
        ASSERT_EQ(ra.plans.size(), ga.plans.size());
        for (std::size_t p = 0; p < ra.plans.size(); ++p) {
            EXPECT_EQ(ra.plans[p].metaOp, ga.plans[p].metaOp);
            ASSERT_EQ(ra.plans[p].tuples.size(),
                      ga.plans[p].tuples.size());
            for (std::size_t t = 0; t < ra.plans[p].tuples.size(); ++t) {
                EXPECT_EQ(ra.plans[p].tuples[t].n,
                          ga.plans[p].tuples[t].n);
                EXPECT_EQ(ra.plans[p].tuples[t].l,
                          ga.plans[p].tuples[t].l);
            }
        }
    }

    EXPECT_EQ(ref.placement.usedMemoryFallback,
              got.placement.usedMemoryFallback);
    EXPECT_TRUE(sameBits(ref.placement.estimatedCommSeconds,
                         got.placement.estimatedCommSeconds));
    ASSERT_EQ(ref.placement.peakBytes.size(),
              got.placement.peakBytes.size());
    for (std::size_t d = 0; d < ref.placement.peakBytes.size(); ++d)
        EXPECT_TRUE(sameBits(ref.placement.peakBytes[d],
                             got.placement.peakBytes[d]))
            << "device " << d;
}

// ===================================================================
// Equivalence: concurrent responses == serial plan()
// ===================================================================

TEST(PlanService, ConcurrentResponsesMatchSerialPlan)
{
    // A mixed multi-tenant load: distinct workloads interleaved and
    // submitted from several client threads at once, against a
    // 4-worker service. Every response must be byte-identical to the
    // serial reference plan of that workload.
    std::vector<ComputationGraph> graphs;
    graphs.push_back(fig3Workload());
    graphs.push_back(buildMultitaskClip({.numTasks = 3}));
    graphs.push_back(buildOfasys({.numTasks = 3}));
    graphs.push_back(fig3Workload(/*batch=*/64));
    std::vector<MetaGraph> metas;
    metas.reserve(graphs.size());
    for (const ComputationGraph &g : graphs)
        metas.push_back(contractGraph(g));

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);

    // Serial references, planned before the service exists.
    const ExecutionPlanner reference(hw);
    std::vector<PlannerOutput> want;
    want.reserve(metas.size());
    for (const MetaGraph &meta : metas)
        want.push_back(reference.plan(meta));

    PlanService service(hw, serviceOpts(4));
    constexpr std::size_t kClients = 3;
    constexpr std::size_t kRounds = 2;
    std::vector<std::vector<PlanJobHandle>> per_client(kClients);
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (std::size_t r = 0; r < kRounds; ++r)
                    for (const MetaGraph &meta : metas)
                        per_client[c].push_back(service.submit(meta));
            });
        for (std::thread &t : clients)
            t.join();
    }
    service.drain();

    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(per_client[c].size(), kRounds * metas.size());
        for (std::size_t i = 0; i < per_client[c].size(); ++i) {
            SCOPED_TRACE(strCat("client ", c, " request ", i));
            const PlanJobHandle &job = per_client[c][i];
            ASSERT_EQ(job->wait(), PlanJobState::Done);
            expectOutputsIdentical(want[i % metas.size()], job->result());
        }
    }

    const PlanServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kClients * kRounds * metas.size());
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.cancelled, 0u);
    // Each distinct workload misses at most once; every repeat is a
    // full hit (racing first-misses may compute in parallel, so the
    // floor is what dedupe guarantees, not an exact count).
    EXPECT_GE(stats.dedupedFullHits,
              stats.submitted - metas.size() * service.workers());
    EXPECT_GT(stats.cache.fullHits, 0u);
}

TEST(PlanService, MultiTenantTopologiesKeepContextsApart)
{
    // Two tenants with different cluster shapes submit the same
    // workload: responses must match the serial plan on each tenant's
    // own cluster, and the shared cache must never leak one tenant's
    // plan to the other (distinct contexts).
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);

    ClusterTopology topo_a = smallCluster(2);
    ClusterTopology topo_b = smallCluster(1);
    HardwareModel hw_a(topo_a);
    HardwareModel hw_b(topo_b);

    PlannerOutput want_a = ExecutionPlanner(hw_a).plan(meta);
    PlannerOutput want_b = ExecutionPlanner(hw_b).plan(meta);
    ASSERT_FALSE(sameBits(want_a.plan.estimatedSpan,
                          want_b.plan.estimatedSpan));

    PlanService service(hw_a, serviceOpts(2));
    PlanJobHandle ja = service.submit(meta);            // default tenant
    PlanJobHandle jb = service.submit(meta, hw_b);      // explicit tenant
    ASSERT_EQ(ja->wait(), PlanJobState::Done);
    ASSERT_EQ(jb->wait(), PlanJobState::Done);
    expectOutputsIdentical(want_a, ja->result());
    expectOutputsIdentical(want_b, jb->result());
}

// ===================================================================
// Dedupe accounting
// ===================================================================

TEST(PlanService, DedupeFullHitAccountingIsExact)
{
    // Warm the cache with one request, then submit 7 identical ones
    // concurrently: every one of them must be served as a full hit
    // (dedupe), byte-identical to the serial reference.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput want = ExecutionPlanner(hw).plan(meta);

    PlanService service(hw, serviceOpts(4));
    ASSERT_EQ(service.submit(meta)->wait(), PlanJobState::Done);
    EXPECT_EQ(service.stats().dedupedFullHits, 0u);

    std::vector<PlanJobHandle> jobs;
    for (int i = 0; i < 7; ++i)
        jobs.push_back(service.submit(meta));
    service.drain();
    for (const PlanJobHandle &job : jobs) {
        ASSERT_EQ(job->status(), PlanJobState::Done);
        EXPECT_TRUE(job->result().replan.fullHit);
        expectOutputsIdentical(want, job->result());
    }

    const PlanServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.dedupedFullHits, 7u);
    EXPECT_EQ(stats.cache.fullHits, 7u);
    EXPECT_EQ(stats.cache.misses, 1u);
}

// ===================================================================
// Job lifecycle
// ===================================================================

TEST(PlanService, CancelAndStatusLifecycle)
{
    // One worker, one slow request occupying it: a second queued
    // request can be cancelled before it runs, consumes its slot
    // without planning, and reads back as Cancelled.
    ComputationGraph heavy_g = buildMultitaskClip({.numTasks = 10});
    MetaGraph heavy = contractGraph(heavy_g);
    ComputationGraph light_g = fig3Workload();
    MetaGraph light = contractGraph(light_g);

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlanService service(hw, serviceOpts(1));

    PlanJobHandle busy = service.submit(heavy);
    PlanJobHandle victim = service.submit(light);
    EXPECT_GT(victim->id(), busy->id());

    // The single worker is planning `busy`; `victim` is still queued.
    EXPECT_TRUE(victim->cancel());
    EXPECT_EQ(victim->status(), PlanJobState::Cancelled);
    EXPECT_FALSE(victim->cancel()) << "second cancel must report false";

    EXPECT_EQ(busy->wait(), PlanJobState::Done);
    EXPECT_FALSE(busy->cancel()) << "terminal jobs cannot be cancelled";
    EXPECT_EQ(victim->wait(), PlanJobState::Cancelled);

    service.drain();
    const PlanServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.cancelled, 1u);

    EXPECT_STREQ(toString(PlanJobState::Queued), "Queued");
    EXPECT_STREQ(toString(PlanJobState::Running), "Running");
    EXPECT_STREQ(toString(PlanJobState::Done), "Done");
    EXPECT_STREQ(toString(PlanJobState::Failed), "Failed");
    EXPECT_STREQ(toString(PlanJobState::Cancelled), "Cancelled");
}

TEST(PlanService, TrySubmitRejectsOnFullQueue)
{
    // Capacity-1 queue behind a single busy worker: the blocking
    // submit parks until the worker frees a slot, trySubmit refuses
    // immediately and counts the rejection.
    ComputationGraph heavy_g = buildMultitaskClip({.numTasks = 10});
    MetaGraph heavy = contractGraph(heavy_g);
    ComputationGraph light_g = fig3Workload();
    MetaGraph light = contractGraph(light_g);

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlanService service(hw, serviceOpts(1, 1));

    PlanJobHandle busy = service.submit(heavy);   // popped by the worker
    PlanJobHandle queued = service.submit(light); // fills the queue
    PlanJobHandle refused = service.trySubmit(light);
    EXPECT_EQ(refused, nullptr);

    service.drain();
    EXPECT_EQ(busy->status(), PlanJobState::Done);
    EXPECT_EQ(queued->status(), PlanJobState::Done);
    const PlanServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
}

TEST(PlanService, SubmitBatchReturnsHandlesInOrder)
{
    ComputationGraph g0 = fig3Workload();
    ComputationGraph g1 = buildOfasys({.numTasks = 2});
    MetaGraph m0 = contractGraph(g0);
    MetaGraph m1 = contractGraph(g1);

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput want0 = ExecutionPlanner(hw).plan(m0);
    PlannerOutput want1 = ExecutionPlanner(hw).plan(m1);

    PlanService service(hw, serviceOpts(2));
    std::vector<PlanJobHandle> jobs =
        service.submitBatch({&m0, &m1, &m0});
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_LT(jobs[0]->id(), jobs[1]->id());
    EXPECT_LT(jobs[1]->id(), jobs[2]->id());
    service.drain();
    expectOutputsIdentical(want0, jobs[0]->result());
    expectOutputsIdentical(want1, jobs[1]->result());
    expectOutputsIdentical(want0, jobs[2]->result());
}

// ===================================================================
// Failure isolation
// ===================================================================

TEST(PlanService, MalformedRequestFailsAloneWithStructuredError)
{
    // A tenant cluster spec with an empty island is a user error that
    // used to exit the process inside ClusterTopology's constructor.
    // Through the service it must fail only its own request — with a
    // PlanError naming the request — while concurrent good requests
    // complete normally.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlannerOutput want = ExecutionPlanner(hw).plan(meta);

    PlanService service(hw, serviceOpts(2));

    ClusterConfig malformed;
    malformed.islands.resize(2);
    malformed.islands[0].devices = {0, 1, 2, 3};
    malformed.islands[1].devices = {}; // empty island: user error

    std::vector<PlanJobHandle> good;
    for (int i = 0; i < 3; ++i)
        good.push_back(service.submit(meta));
    PlanJobHandle bad = service.submitWithCluster(meta, malformed);
    for (int i = 0; i < 3; ++i)
        good.push_back(service.submit(meta));
    service.drain();

    ASSERT_EQ(bad->status(), PlanJobState::Failed);
    EXPECT_EQ(bad->error().requestId, bad->id());
    EXPECT_FALSE(bad->error().message.empty());
    for (const PlanJobHandle &job : good) {
        ASSERT_EQ(job->status(), PlanJobState::Done);
        expectOutputsIdentical(want, job->result());
    }

    const PlanServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 6u);
}

TEST(PlanService, DuplicateDeviceIdsFailTheRequestOnly)
{
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlanService service(hw, serviceOpts(2));

    ClusterConfig dup;
    dup.islands.resize(2);
    dup.islands[0].devices = {0, 1, 2, 3};
    dup.islands[1].devices = {3, 4, 5, 6}; // device 3 in two islands

    PlanJobHandle bad = service.submitWithCluster(meta, dup);
    PlanJobHandle ok = service.submit(meta);
    EXPECT_EQ(bad->wait(), PlanJobState::Failed);
    EXPECT_EQ(ok->wait(), PlanJobState::Done);
}

TEST(PlanService, EmptyGraphFailsWithValidationError)
{
    // A workload that contracted to nothing has no levels to plan;
    // the service reports it instead of tripping the scheduler's
    // internal checks.
    WorkloadBuilder builder;
    ComputationGraph base = builder.build(); // zero tasks, zero ops
    MetaGraph empty = contractGraph(base);
    ASSERT_EQ(empty.numLevels(), 0u);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);

    PlanService service(hw, serviceOpts(1));
    PlanJobHandle job = service.submit(empty);
    ASSERT_EQ(job->wait(), PlanJobState::Failed);
    EXPECT_NE(job->error().message.find("empty"), std::string::npos)
        << job->error().message;
    // Counters finalize with drain(), not with wait(): a waiter can
    // observe the terminal job before the service has accounted it.
    service.drain();
    EXPECT_EQ(service.stats().failed, 1u);
}

TEST(PlanService, WellFormedClusterRequestPlansOnTenantCluster)
{
    // The happy path of submitWithCluster: the worker-materialized
    // topology yields the same bytes as planning on a caller-built
    // HardwareModel of the same spec.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);

    ClusterConfig tenant_cfg;
    tenant_cfg.numNodes = 1;
    tenant_cfg.gpusPerNode = 8;
    ClusterTopology tenant_topo(tenant_cfg);
    HardwareModel tenant_hw(tenant_topo);
    PlannerOutput want = ExecutionPlanner(tenant_hw).plan(meta);

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    PlanService service(hw, serviceOpts(2));
    PlanJobHandle job = service.submitWithCluster(meta, tenant_cfg);
    ASSERT_EQ(job->wait(), PlanJobState::Done);
    expectOutputsIdentical(want, job->result());
}

// ===================================================================
// Accessor misuse + options normalization
// ===================================================================

TEST(PlanServiceDeathTest, ResultOnNonDoneJobPanics)
{
    // An empty graph deterministically Fails; reading result() off a
    // Failed job is caller error and must panic, not return garbage.
    WorkloadBuilder builder;
    ComputationGraph base = builder.build();
    MetaGraph empty = contractGraph(base);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    EXPECT_DEATH(
        {
            PlanService service(hw, serviceOpts(1));
            PlanJobHandle job = service.submit(empty);
            job->wait();
            (void)job->result();
        },
        "not Done");
}

TEST(PlanService, PerRequestPlannersUseTheSharedCache)
{
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);
    PlanServiceOptions options;
    options.workers = 2;
    PlanService service(hw, options);
    EXPECT_EQ(service.plannerOptions().cache, &service.cache());
    EXPECT_EQ(service.workers(), 2u);
}

// ===================================================================
// SpindleSystem::buildPlan overlapping-call tripwire
// ===================================================================

TEST(PlanServiceDeathTest, BuildPlanReentryPanicsWithActionableMessage)
{
    // Two threads loop buildPlan on one SpindleSystem, so one call
    // soon starts while the other is inside: the exact overlapping
    // use the atomic in-use guard exists to catch. Before the guard
    // this silently raced on the cached planner. The loops are
    // bounded so that a missing guard fails the test, not hangs it.
    ComputationGraph g = fig3Workload();
    MetaGraph meta = contractGraph(g);
    ClusterTopology topo = smallCluster(1);
    HardwareModel hw(topo);

    EXPECT_DEATH(
        {
            SpindleSystem sys(hw);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            auto loop = [&] {
                while (std::chrono::steady_clock::now() < deadline)
                    (void)sys.buildPlan(meta);
            };
            std::thread a(loop);
            std::thread b(loop);
            a.join();
            b.join();
        },
        "overlapping call");
}

// ===================================================================
// Shared-cache stress (TSan pin for the service layer)
// ===================================================================

TEST(PlanService, ManyClientsManyWorkersStress)
{
    // 8 client threads x 4 requests against 4 workers, two workload
    // shapes: exercises admission, the shared cache, and job
    // completion under real contention. Responses spot-checked for
    // byte identity.
    std::vector<ComputationGraph> graphs;
    graphs.push_back(fig3Workload());
    graphs.push_back(buildOfasys({.numTasks = 2}));
    std::vector<MetaGraph> metas;
    for (const ComputationGraph &g : graphs)
        metas.push_back(contractGraph(g));

    ClusterTopology topo = smallCluster(2);
    HardwareModel hw(topo);
    const ExecutionPlanner reference(hw);
    std::vector<PlannerOutput> want;
    for (const MetaGraph &meta : metas)
        want.push_back(reference.plan(meta));

    PlanService service(hw, serviceOpts(4, 64));
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kPerClient = 4;
    std::vector<std::vector<PlanJobHandle>> handles(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (std::size_t r = 0; r < kPerClient; ++r)
                handles[c].push_back(
                    service.submit(metas[(c + r) % metas.size()]));
        });
    for (std::thread &t : clients)
        t.join();
    service.drain();

    for (std::size_t c = 0; c < kClients; ++c)
        for (std::size_t r = 0; r < kPerClient; ++r) {
            SCOPED_TRACE(strCat("client ", c, " request ", r));
            ASSERT_EQ(handles[c][r]->status(), PlanJobState::Done);
            expectOutputsIdentical(want[(c + r) % metas.size()],
                                   handles[c][r]->result());
        }
    EXPECT_EQ(service.stats().completed, kClients * kPerClient);
}

} // namespace
} // namespace spindle
