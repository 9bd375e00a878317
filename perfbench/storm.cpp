/**
 * @file
 * service-storm-256: a seeded stream of plan requests against a
 * PlanService with one worker on 32 nodes (256 GPUs). One client
 * submit()s then wait()s in a closed loop, so at most one request is
 * being planned at a time.
 *
 * One client and one worker, not more: with two of each the run keeps
 * two request chains busy on a 4-vCPU host, and its figures swung by
 * 30-40% between runs whenever the host was loaded, beyond any bound
 * the benchmark may set. A single chain degrades like the single-client
 * plan workloads.
 *
 * The catalog holds 47 workloads (CLIP 1-10 tasks x 3 heavy batches,
 * OFASys 1-7 tasks x 2 batches, QWen-VAL 9B 1-3 tasks) with Zipf-like
 * popularity; about 20% of requests target a degraded shape (two
 * devices removed with withoutDevices), the replan pattern after a
 * failure. 47 workloads exceed the service's 32-plan per-context
 * FIFO bound, so the cache evicts and some requests miss. No engine
 * runs: engine or placement changes should show no effect here, while
 * cache-policy and service changes should.
 *
 * Every response must byte-match a serial ExecutionPlanner::plan()
 * reference for its (workload, shape), computed during set-up.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "support.h"

namespace perfbench {

using namespace spindle;

namespace {

constexpr std::uint32_t kNodes = 32;
constexpr std::uint32_t kWorkers = 1;
constexpr double kDegradedShare = 0.2;
constexpr double kZipfExponent = 0.9;

/** Devices removed to form the degraded shape (different nodes). */
const DeviceSet kDeadDevices = {13, 201};

/** splitmix64: a portable, seedable generator for the request stream. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/** One catalog workload with its per-shape reference encodings. */
struct Tenant
{
    Tenant(const Tenant &) = delete;
    Tenant &operator=(const Tenant &) = delete;
    explicit Tenant(ComputationGraph g) : graph(std::move(g)) {}

    ComputationGraph graph;
    std::unique_ptr<MetaGraph> meta;

    /** Serial plan() references: [0] full cluster, [1] degraded shape. */
    ExecutionPlan refPlan[2];
    std::string ref[2]; ///< their byte encodings
};

std::vector<ComputationGraph>
catalogGraphs()
{
    std::vector<ComputationGraph> out;
    for (std::uint32_t tasks = 1; tasks <= 10; ++tasks)
        for (std::int64_t heavy : {48, 64, 96})
            out.push_back(
                buildMultitaskClip({.numTasks = tasks, .batchHeavy = heavy}));
    for (std::uint32_t tasks = 1; tasks <= 7; ++tasks)
        for (std::int64_t batch : {64, 128})
            out.push_back(buildOfasys({.numTasks = tasks, .batch = batch}));
    for (std::uint32_t tasks = 1; tasks <= 3; ++tasks)
        out.push_back(buildQwenVal({.numTasks = tasks}));
    return out;
}

/** Everything one set-up builds. Members are destroyed in reverse:
 *  the service goes first, while the graphs and hardware it
 *  references are still alive. */
struct StormSetup
{
    std::vector<std::unique_ptr<Tenant>> catalog;
    std::unique_ptr<ClusterTopology> topo[2];
    std::unique_ptr<HardwareModel> hw[2];

    /** Popularity CDF over catalog indices, most popular first. */
    std::vector<double> cdf;
    std::vector<std::size_t> byRank;

    double contractSeconds = 0;
    double headIterationSeconds = 0;
    bool refsFit = true;

    std::unique_ptr<PlanService> service;
};

std::unique_ptr<StormSetup>
setUp()
{
    auto s = std::make_unique<StormSetup>();
    for (ComputationGraph &g : catalogGraphs())
        s->catalog.push_back(std::make_unique<Tenant>(std::move(g)));
    const auto t_contract = Clock::now();
    for (auto &t : s->catalog)
        t->meta = std::make_unique<MetaGraph>(contractGraph(t->graph));
    s->contractSeconds = secondsSince(t_contract);

    ClusterConfig full;
    full.numNodes = kNodes;
    full.gpusPerNode = 8;
    s->topo[0] = std::make_unique<ClusterTopology>(full);
    s->topo[1] = std::make_unique<ClusterTopology>(
        s->topo[0]->withoutDevices(kDeadDevices).config);
    for (int shape = 0; shape < 2; ++shape)
        s->hw[shape] = std::make_unique<HardwareModel>(*s->topo[shape]);

    // Popularity: a fixed shuffle of the catalog (rank is not tied to
    // workload size), weights 1 / rank^s. The seed only drives the
    // request stream.
    const std::size_t n = s->catalog.size();
    s->byRank.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        s->byRank[i] = i;
    SplitMix shuffle{0x5917d1e};
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(s->byRank[i], s->byRank[shuffle.next() % (i + 1)]);
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        s->cdf.push_back(total);
    }
    for (double &c : s->cdf)
        c /= total;

    // Serial plan() references for every (workload, shape).
    for (int shape = 0; shape < 2; ++shape) {
        const ExecutionPlanner planner(*s->hw[shape]);
        const double hbm = s->topo[shape]->config().device.memoryBytes;
        for (std::size_t i = 0; i < n; ++i) {
            Tenant &t = *s->catalog[i];
            PlannerOutput ref = planner.plan(*t.meta);
            t.ref[shape] = encodePlan(ref.plan, ref.placement);
            t.refPlan[shape] = std::move(ref.plan);
            for (double b : ref.placement.peakBytes)
                s->refsFit = s->refsFit && b <= hbm;
            if (shape == 0 && i == s->byRank[0])
                s->headIterationSeconds =
                    Engine(*s->hw[0])
                        .run(*t.meta, t.refPlan[0])
                        .iterationSeconds;
        }
    }

    PlanServiceOptions options;
    options.workers = kWorkers;
    s->service = std::make_unique<PlanService>(*s->hw[0], options);

    // Warm-up: every (workload, shape) once, filling both contexts.
    for (int shape = 0; shape < 2; ++shape)
        for (auto &t : s->catalog)
            (shape == 0 ? s->service->submit(*t->meta)
                        : s->service->submit(*t->meta, *s->hw[1]))
                ->wait();
    return s;
}

/** What the client observed. */
struct ClientLog
{
    std::vector<double> latency; ///< submit start -> wait return, s
    std::vector<double> submit;  ///< submit() call, s
    std::vector<char> hit;       ///< served as a whole-plan full hit
    std::vector<double> finalize; ///< finalize replayed on hits, s
    double cycles = 0;            ///< client cycles, s
    double dark = 0;              ///< cycle time outside both spans, s
    std::uint64_t failed = 0;
};

/**
 * The closed loop: draw a request, submit, wait, check the response and
 * release it, until @p deadline (at least one request). A traced cycle
 * gets a `request` span with `service.submit` and `service.wait`
 * inside; the cycle's remaining time (drawing the request, checking and
 * releasing the response) is its dark time.
 */
ClientLog
storm(StormSetup &s, std::uint64_t seed, Clock::time_point deadline,
      SpanLog *trace)
{
    ClientLog out;
    SplitMix rng{seed};
    std::uint64_t op = 0;
    do {
        const auto c0 = Clock::now();
        const double u = rng.unit();
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(s.cdf.begin(), s.cdf.end(), u) - s.cdf.begin());
        Tenant &t = *s.catalog[s.byRank[std::min(rank, s.cdf.size() - 1)]];
        const int shape = rng.unit() < kDegradedShare ? 1 : 0;

        Clock::time_point t0, t1, t2;
        bool hit = false;
        {
            t0 = Clock::now();
            const PlanJobHandle job = shape == 0
                ? s.service->submit(*t.meta)
                : s.service->submit(*t.meta, *s.hw[1]);
            t1 = Clock::now();
            const PlanJobState state = job->wait();
            t2 = Clock::now();

            const bool ok = state == PlanJobState::Done &&
                            encodePlan(job->result().plan,
                                       job->result().placement) ==
                                t.ref[shape];
            hit = ok && job->result().replan.fullHit;
            out.failed += ok ? 0 : 1;
        }
        const auto c1 = Clock::now();
        out.latency.push_back(std::chrono::duration<double>(t2 - t0).count());
        out.submit.push_back(std::chrono::duration<double>(t1 - t0).count());
        out.hit.push_back(hit ? 1 : 0);

        if (trace != nullptr) {
            const char *tag = hit ? "hit" : "miss";
            const Span cycle =
                trace->record("request", "", 0, op, c0, c1, tag);
            const Span sub = trace->record("service.submit", "request", 0,
                                           op, t0, t1, tag);
            const Span wait = trace->record("service.wait", "request", 0, op,
                                            t1, t2, tag);
            out.cycles += cycle.durNs * 1e-9;
            out.dark += (cycle.durNs - sub.durNs - wait.durNs) * 1e-9;
            if (hit) {
                // The full-hit path's finalize step (annotateReadiness
                // + validate), replayed outside the cycle on a copy of
                // the reference plan the response matched.
                ExecutionPlan copy = t.refPlan[shape];
                const auto f0 = Clock::now();
                copy.annotateReadiness(*t.meta);
                copy.validate(*t.meta);
                const auto f1 = Clock::now();
                out.finalize.push_back(
                    trace->record("planner.finalize", "", 0, op, f0, f1)
                        .durNs *
                    1e-9);
            }
        }
        ++op;
    } while (Clock::now() < deadline);
    return out;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

RunResult
runServiceStorm(const RunConfig &cfg, SpanLog &log)
{
    RunResult res;
    const std::unique_ptr<StormSetup> s = setUp();
    if (!s->refsFit) {
        std::fprintf(stderr, "perfbench: a storm reference exceeds HBM\n");
        ++res.failed;
    }

    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(cfg.seconds));
    const PlanServiceStats before = s->service->stats();
    const auto t_begin = Clock::now();
    const double setup_seconds =
        std::chrono::duration<double>(t_begin - cfg.started).count();
    if (!cfg.trace) {
        const ClientLog all = storm(*s, cfg.seed, t_begin + window, nullptr);
        const double elapsed = secondsSince(t_begin);
        res.attempted = all.latency.size();
        res.failed += all.failed;
        res.samples = all.latency.size();
        res.add("latency_ms_p50", percentile(all.latency, 0.5) * 1e3, "ms");
        res.add("latency_ms_p90", percentile(all.latency, 0.9) * 1e3, "ms");
        res.add("throughput_ops_s",
                static_cast<double>(all.latency.size()) / elapsed, "ops/s");
        res.add("sim_iter_per_s", 1.0 / s->headIterationSeconds, "1/s");
        res.add("setup_s", setup_seconds, "s");
        return res;
    }

    // Traced run: untraced first half (overhead baseline), traced
    // second half; cache counters cover both.
    const ClientLog untraced =
        storm(*s, cfg.seed, t_begin + window / 2, nullptr);
    const ClientLog traced =
        storm(*s, cfg.seed ^ 0x7ace, Clock::now() + window / 2, &log);
    const PlanServiceStats after = s->service->stats();
    res.attempted = untraced.latency.size() + traced.latency.size();
    res.failed += untraced.failed + traced.failed;
    res.samples = traced.latency.size();

    std::vector<double> hit_ms, miss_ms;
    for (std::size_t i = 0; i < traced.latency.size(); ++i)
        (traced.hit[i] ? hit_ms : miss_ms).push_back(traced.latency[i] * 1e3);

    const PlanCache::Stats &a = after.cache;
    const PlanCache::Stats &b = before.cache;
    res.add("graph.contract_ms", s->contractSeconds * 1e3, "ms");
    res.add("planner.finalize_ms", median(traced.finalize) * 1e3, "ms");
    res.add("plan_cache.full_hit_frac",
            ratio(a.fullHits - b.fullHits,
                  a.fullHits - b.fullHits + a.misses - b.misses),
            "fraction");
    res.add("plan_cache.curve_hit_frac",
            ratio(a.curveHits - b.curveHits,
                  a.curveHits - b.curveHits + a.curveMisses - b.curveMisses),
            "fraction");
    res.add("plan_cache.alloc_hit_frac",
            ratio(a.allocHits - b.allocHits,
                  a.allocHits - b.allocHits + a.allocMisses - b.allocMisses),
            "fraction");
    res.add("plan_cache.reused_levels",
            static_cast<double>(a.reusedLevels - b.reusedLevels), "count");
    res.add("plan_cache.evictions",
            static_cast<double>(a.evictions - b.evictions), "count");
    res.add("service.hit_ms_p50", median(hit_ms), "ms");
    res.add("service.miss_ms_p50", median(miss_ms), "ms");
    res.add("service.submit_ms_p90", percentile(traced.submit, 0.9) * 1e3,
            "ms");
    res.add("service.failed", static_cast<double>(after.failed - before.failed),
            "count");
    res.add("trace.dark_frac",
            traced.cycles > 0 ? traced.dark / traced.cycles : 0.0,
            "fraction");
    res.add("trace.overhead_frac",
            median(traced.latency) / median(untraced.latency) - 1.0,
            "fraction");
    return res;
}

} // namespace perfbench
