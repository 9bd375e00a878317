/**
 * @file
 * PlanService throughput bench: a multi-tenant request storm — mixed
 * Multitask-CLIP and OFASys workloads at 64 GPUs — admitted through
 * the service at 1 and at 8 planning workers.
 *
 * Each configuration gets a fresh service (fresh shared cache) and
 * the identical request sequence: first the distinct workloads of the
 * mix (the cold misses that populate the cache), then a storm cycling
 * through the mix, every one of which dedupes into a whole-plan full
 * hit. Wall-clock covers submission through drain. Every response is
 * byte-compared against a serial ExecutionPlanner::plan() reference
 * (the service equivalence contract); divergences are counted, never
 * tolerated.
 *
 * Emits BENCH_service.json (override the path with SPINDLE_BENCH_JSON)
 * with requests / seconds / rps / full_hit_rate / mismatches /
 * speedup_vs_serial per worker count. CI gates, via
 * scripts/check_bench_regression.py against
 * bench/baseline_service.json:
 *   - mismatches == 0 and the full-hit-rate floor, on any runner
 *     (deterministic values);
 *   - the 8-worker throughput >= 2x the 1-worker run, only on runners
 *     with enough hardware threads to host the workers.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench_util.h"
#include "service/plan_service.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

/** Byte-level equality of a service response vs the serial plan()
 *  reference; false (counted by the caller) on any divergence. */
bool
identical(const PlannerOutput &ref, const PlannerOutput &got)
{
    if (ref.plan.estimatedSpan != got.plan.estimatedSpan ||
        ref.plan.theoreticalOptimum != got.plan.theoreticalOptimum ||
        ref.plan.waves.size() != got.plan.waves.size())
        return false;
    for (std::size_t w = 0; w < ref.plan.waves.size(); ++w) {
        const Wave &a = ref.plan.waves[w];
        const Wave &b = got.plan.waves[w];
        if (a.entries.size() != b.entries.size())
            return false;
        for (std::size_t i = 0; i < a.entries.size(); ++i) {
            const WaveEntry &x = a.entries[i];
            const WaveEntry &y = b.entries[i];
            if (x.metaOp != y.metaOp || x.n != y.n ||
                x.opBegin != y.opBegin || x.numOps != y.numOps ||
                x.duration != y.duration || x.devices != y.devices)
                return false;
        }
    }
    return ref.placement.estimatedCommSeconds ==
               got.placement.estimatedCommSeconds &&
           ref.placement.peakBytes == got.placement.peakBytes &&
           ref.placement.usedMemoryFallback ==
               got.placement.usedMemoryFallback;
}

struct ConfigResult
{
    double seconds = 0;
    std::uint64_t requests = 0;
    std::uint64_t mismatches = 0;
    double fullHitRate = 0;
};

ConfigResult
runConfig(const HardwareModel &hw, const std::vector<MetaGraph> &metas,
          const std::vector<PlannerOutput> &want, std::uint32_t workers,
          std::uint32_t storm_requests)
{
    PlanServiceOptions options;
    options.workers = workers;
    options.queueCapacity = metas.size() + storm_requests;
    PlanService service(hw, options);

    std::vector<PlanJobHandle> jobs;
    jobs.reserve(metas.size() + storm_requests);
    std::vector<std::size_t> which;
    which.reserve(jobs.capacity());

    const auto t0 = std::chrono::steady_clock::now();
    // Cold phase: each distinct workload once. All distinct, so the
    // miss count is deterministic at any worker count.
    for (std::size_t m = 0; m < metas.size(); ++m) {
        jobs.push_back(service.submit(metas[m]));
        which.push_back(m);
    }
    // Warm storm: cycles the mix; every request is a full hit by the
    // time a worker picks it up only if the cold plan finished, so
    // drain the cold phase first to keep the hit rate deterministic.
    service.drain();
    for (std::uint32_t r = 0; r < storm_requests; ++r) {
        const std::size_t m = r % metas.size();
        jobs.push_back(service.submit(metas[m]));
        which.push_back(m);
    }
    service.drain();
    const auto t1 = std::chrono::steady_clock::now();

    ConfigResult out;
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.requests = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i]->status() != PlanJobState::Done ||
            !identical(want[which[i]], jobs[i]->result()))
            ++out.mismatches;
    }
    const PlanServiceStats stats = service.stats();
    out.fullHitRate =
        stats.completed == 0
            ? 0.0
            : static_cast<double>(stats.dedupedFullHits) /
                  static_cast<double>(stats.completed);
    return out;
}

} // namespace

int
main()
{
    std::cout << "=== PlanService: multi-tenant request storm at 64 GPUs "
                 "===\n";

    ClusterTopology topo = makeCluster(8); // 64 GPUs
    HardwareModel hw(topo);

    // The tenant mix: four CLIP task counts plus two OFASys mixes.
    std::vector<ComputationGraph> graphs;
    for (std::uint32_t t : {4u, 5u, 6u, 7u})
        graphs.push_back(buildMultitaskClip({.numTasks = t}));
    for (std::uint32_t t : {3u, 4u})
        graphs.push_back(buildOfasys({.numTasks = t}));
    std::vector<MetaGraph> metas;
    metas.reserve(graphs.size());
    for (const ComputationGraph &g : graphs)
        metas.push_back(contractGraph(g));

    // Serial references (never touch any cache).
    const ExecutionPlanner reference(hw);
    std::vector<PlannerOutput> want;
    want.reserve(metas.size());
    for (const MetaGraph &meta : metas)
        want.push_back(reference.plan(meta));

    constexpr std::uint32_t kStormRequests = 48;

    BenchJsonWriter json;
    Table table({"workers", "requests", "seconds", "req_per_s",
                 "full_hit_rate", "mismatches", "speedup_vs_serial"});

    double serial_seconds = 0;
    for (std::uint32_t workers : {1u, 8u}) {
        const ConfigResult r =
            runConfig(hw, metas, want, workers, kStormRequests);
        if (workers == 1)
            serial_seconds = r.seconds;
        const double rps =
            r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds
                          : 0.0;
        const double speedup =
            r.seconds > 0 ? serial_seconds / r.seconds : 0.0;
        json.record(
            strCat("PlanService/gpus=64/workers=", workers),
            withThreadFields(
                {{"workers", static_cast<double>(workers)},
                 {"requests", static_cast<double>(r.requests)},
                 {"seconds", r.seconds},
                 {"rps", rps},
                 {"full_hit_rate", r.fullHitRate},
                 {"mismatches", static_cast<double>(r.mismatches)},
                 {"speedup_vs_serial", speedup}}));
        table.addRow({strCat(workers), strCat(r.requests),
                      Table::fmt(r.seconds, 3), Table::fmt(rps, 1),
                      Table::fmt(r.fullHitRate, 3), strCat(r.mismatches),
                      Table::fmt(speedup, 2)});
    }

    table.printAligned(std::cout);
    std::cout << "\nEach configuration replays the identical request "
                 "sequence on a fresh service: the distinct workloads "
                 "cold, then a storm that dedupes into full hits. Every "
                 "response is byte-compared against serial plan().\n";

    const char *override_path = std::getenv("SPINDLE_BENCH_JSON");
    const std::string path =
        override_path != nullptr ? override_path : "BENCH_service.json";
    if (json.writeFile(path))
        std::cout << "\nwrote " << path << "\n";
    else
        std::cerr << "\nfailed to write " << path << "\n";
    return 0;
}
