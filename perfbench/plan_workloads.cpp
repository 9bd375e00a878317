/**
 * @file
 * The two plan+simulate workloads. One client runs
 * ExecutionPlanner::plan() then Engine::run() in a closed loop; every
 * operation is checked against the reference computed during set-up.
 *
 *  - clip10-4096: CLIP-10 on 512 homogeneous 8-GPU nodes, default
 *    options. The engine dominates (135k timeline records per
 *    iteration), so engine and timeline work shows here.
 *  - qwen70b-islands-2048: QWen-VAL 70B (batch 128, ZeRO-3) on
 *    mixed 12/4-GPU islands with IslandAware windows and Auto
 *    collectives. Placement is about half the operation; the only
 *    workload in the ZeRO memory regime.
 *
 * The traced run rebuilds the planner pipeline from the public stage
 * classes (estimate -> allocate -> schedule -> place -> finalize),
 * times the runtime layers by calling their public functions, and
 * then Engine::run(); the rebuilt plan must be byte-identical to the
 * plan() reference.
 */

#include <cstdio>
#include <memory>

#include "support.h"

namespace perfbench {

using namespace spindle;

namespace {

struct PlanWorkloadSpec
{
    const char *name;
    ComputationGraph (*graph)();
    ClusterConfig (*cluster)();
    PlannerOptions planner;
    EngineOptions engine;
};

ComputationGraph
clip10()
{
    return buildMultitaskClip({.numTasks = 10});
}

ComputationGraph
qwen70b()
{
    return buildQwenVal({.size = QwenValConfig::Size::B70, .batch = 128});
}

ClusterConfig
homogeneous4096()
{
    ClusterConfig cfg;
    cfg.numNodes = 512;
    cfg.gpusPerNode = 8;
    return cfg;
}

/** 256 node-equivalents fused pairwise into 12-GPU + 4-GPU islands
 *  (the repo's mixed-island layout), 2048 GPUs. */
ClusterConfig
islands2048()
{
    ClusterConfig cfg;
    DeviceId next = 0;
    for (int pair = 0; pair < 128; ++pair) {
        for (std::uint32_t size : {12u, 4u}) {
            IslandSpec island;
            for (std::uint32_t i = 0; i < size; ++i)
                island.devices.push_back(next++);
            cfg.islands.push_back(std::move(island));
        }
    }
    return cfg;
}

PlanWorkloadSpec
specOf(const std::string &name)
{
    if (name == "clip10-4096")
        return {"clip10-4096", clip10, homogeneous4096, {}, {}};
    PlannerOptions planner;
    planner.memory.zeroShardParams = true;
    planner.placement.windows = WindowPolicy::IslandAware;
    EngineOptions engine;
    engine.collective = CollectiveKind::Auto;
    return {"qwen70b-islands-2048", qwen70b, islands2048, planner, engine};
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/** Everything the set-up builds. Heap-pinned: MetaGraph and
 *  HardwareModel keep references into it. */
struct PlanSetup
{
    PlanSetup(const PlanSetup &) = delete;
    PlanSetup &operator=(const PlanSetup &) = delete;
    PlanSetup() = default;

    ComputationGraph graph;
    std::unique_ptr<MetaGraph> meta;
    std::unique_ptr<ClusterTopology> topo;
    std::unique_ptr<HardwareModel> hw;
    std::unique_ptr<ExecutionPlanner> planner;
    std::unique_ptr<Engine> engine;

    double hbm = 0;
    double contractSeconds = 0;

    std::string refBytes;
    double refIterationSeconds = 0;
    bool refFits = false;
    bool refFallback = false;
    std::size_t refWaves = 0;
    TimeBreakdown refBreakdown;
    double refIdleFrac = 0;
    std::size_t refRecords = 0;
    double deepspeedIterationSeconds = 0;
};

std::unique_ptr<PlanSetup>
setUp(const PlanWorkloadSpec &spec)
{
    auto s = std::make_unique<PlanSetup>();
    s->graph = spec.graph();
    const auto t_contract = Clock::now();
    s->meta = std::make_unique<MetaGraph>(contractGraph(s->graph));
    s->contractSeconds = secondsSince(t_contract);
    s->topo = std::make_unique<ClusterTopology>(spec.cluster());
    s->hw = std::make_unique<HardwareModel>(*s->topo);
    s->planner = std::make_unique<ExecutionPlanner>(*s->hw, spec.planner);
    s->engine = std::make_unique<Engine>(*s->hw, spec.planner.memory,
                                         spec.engine);
    s->hbm = s->topo->config().device.memoryBytes;

    // Reference operation (doubles as the warm-up).
    PlannerOutput ref = s->planner->plan(*s->meta);
    IterationResult iter = s->engine->run(*s->meta, ref.plan);
    s->refBytes = encodePlan(ref.plan, ref.placement);
    s->refIterationSeconds = iter.iterationSeconds;
    s->refFits = maxOf(ref.placement.peakBytes) <= s->hbm &&
                 maxOf(iter.peakMemoryBytes) <= s->hbm;
    s->refFallback = ref.placement.usedMemoryFallback;
    s->refWaves = ref.plan.waves.size();
    s->refBreakdown = iter.breakdown;
    const std::vector<double> busy =
        iter.timeline.deviceBusyFraction(ref.plan.numDevices);
    double busy_sum = 0;
    for (double b : busy)
        busy_sum += b;
    s->refIdleFrac =
        busy.empty() ? 0.0 : 1.0 - busy_sum / static_cast<double>(busy.size());
    s->refRecords = iter.timeline.records().size();

    // The paper's headline comparison: DeepSpeed (ZeRO pure DP,
    // whole cluster per operator) on the same cluster and engine.
    SequentialSystem deepspeed(*s->hw, SequentialMode::DeepSpeed);
    deepspeed.setEngineOptions(spec.engine);
    s->deepspeedIterationSeconds =
        deepspeed.runIteration(*s->meta).iterationSeconds;
    return s;
}

/** One untraced operation: plan() + run(), checked afterwards. */
struct OpOutcome
{
    double seconds = 0;
    bool ok = false;
};

OpOutcome
untracedOp(const PlanSetup &s)
{
    OpOutcome outcome;
    PlannerOutput out;
    IterationResult iter;
    const auto t0 = Clock::now();
    try {
        RecoverableScope scope;
        out = s.planner->plan(*s.meta);
        iter = s.engine->run(*s.meta, out.plan);
    } catch (const RecoverableError &e) {
        outcome.seconds = secondsSince(t0);
        std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
        return outcome;
    }
    outcome.seconds = secondsSince(t0);
    outcome.ok = iter.iterationSeconds == s.refIterationSeconds &&
                 maxOf(iter.peakMemoryBytes) <= s.hbm &&
                 encodePlan(out.plan, out.placement) == s.refBytes;
    return outcome;
}

/** One traced operation: its outcome, the self time of every layer
 *  span (seconds) and the runtime layers' counts. */
struct TracedOp
{
    bool ok = false;
    double seconds = 0;
    double estimate = 0, allocate = 0, schedule = 0, place = 0,
           finalize = 0, transmissions = 0, paramGroups = 0, memory = 0,
           engine = 0;

    /** Derived: planner stages summed; engine time not spanned by the
     *  runtime layers it rebuilds internally (wave dispatch, sync and
     *  timeline recording); operation time outside every span. */
    double plan = 0, dispatchSync = 0, dark = 0;

    std::size_t numTransmissions = 0;
    double transmissionBytes = 0;
    std::size_t numParamGroups = 0;
    double syncBytes = 0;
    double peakMemFrac = 0;
};

/**
 * The pipeline of ExecutionPlanner::plan() rebuilt from its public
 * stages, each call wrapped in its own span, followed by the runtime
 * layers Engine::run() composes, then Engine::run() itself. The glue
 * between calls (filling in the plan, recording spans) lies in no
 * layer span and is the operation's dark time; the layers' counts are
 * taken after the operation span closes.
 */
TracedOp
tracedOp(const PlanSetup &s, const PlannerOptions &opts, SpanLog &log,
         std::uint64_t op)
{
    TracedOp t;
    const MetaGraph &meta = *s.meta;
    const HardwareModel &hw = *s.hw;
    const std::uint32_t n = s.topo->numDevices();
    // Run one layer call in a span of its own; its seconds.
    auto timed = [&](const char *name, auto &&call) {
        const Clock::time_point begin = Clock::now();
        call();
        const Clock::time_point end = Clock::now();
        return log.record(name, "operation", 0, op, begin, end).durNs * 1e-9;
    };

    PlannerOutput out;
    IterationResult iter;
    std::vector<TransmissionOp> trans;
    ParameterGroupPool pool;
    std::vector<double> peak;
    const Clock::time_point start = Clock::now();
    try {
        RecoverableScope scope;
        t.estimate = timed("cost.estimate", [&] {
            out.curves = ScalabilityEstimator(hw, opts.estimator)
                             .estimateAll(meta, n);
        });

        std::vector<LevelAllocation> allocations;
        t.allocate = timed("planner.allocate", [&] {
            allocations =
                ResourceAllocator(meta, out.curves, n, opts.allocator)
                    .allocateAll();
        });

        ExecutionPlan &plan = out.plan;
        t.schedule = timed("planner.schedule", [&] {
            plan.waves =
                WavefrontScheduler(meta, out.curves, n, opts.scheduler)
                    .scheduleAll(allocations);
        });
        plan.numDevices = n;
        plan.allocations = std::move(allocations);
        for (const LevelAllocation &a : plan.allocations)
            plan.theoreticalOptimum += a.continuous.cStar;
        plan.estimatedSpan =
            plan.waves.empty()
                ? 0.0
                : plan.waves.back().start + plan.waves.back().duration;

        const MemoryModel mem(opts.memory);
        t.place = timed("planner.place", [&] {
            out.placement =
                DevicePlacement(hw.topology(), hw, mem, opts.placement)
                    .place(meta, plan);
        });

        t.finalize = timed("planner.finalize", [&] {
            plan.annotateReadiness(meta);
            plan.validate(meta);
        });

        t.transmissions = timed("runtime.transmissions", [&] {
            trans = buildTransmissions(meta, plan, hw.collectives());
        });
        t.paramGroups = timed("runtime.param_groups", [&] {
            pool = ParameterGroupPool::build(meta, plan, &hw.topology());
        });
        t.memory = timed("runtime.memory", [&] {
            peak = peakMemoryPerDevice(meta, plan, hw, mem);
        });
        t.engine = timed("runtime.engine",
                         [&] { iter = s.engine->run(meta, plan); });
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
        t.seconds = secondsSince(start);
        return t;
    }
    t.seconds = log.record("operation", "", 0, op, start, Clock::now())
                    .durNs *
                1e-9;

    t.numTransmissions = trans.size();
    t.transmissionBytes = totalTransmissionBytes(trans);
    t.numParamGroups = pool.groups().size();
    t.syncBytes = pool.totalSyncBytes();
    t.peakMemFrac = maxOf(peak) / s.hbm;
    t.plan = t.estimate + t.allocate + t.schedule + t.place + t.finalize;
    t.dispatchSync = t.engine - t.transmissions - t.paramGroups - t.memory;
    t.dark = t.seconds - (t.plan + t.transmissions + t.paramGroups +
                          t.memory + t.engine);
    t.ok = iter.iterationSeconds == s.refIterationSeconds &&
           maxOf(iter.peakMemoryBytes) <= s.hbm &&
           encodePlan(out.plan, out.placement) == s.refBytes;
    return t;
}

/** Closed loop of untraced operations until @p deadline (at least
 *  one operation). */
std::vector<double>
untracedLoop(const PlanSetup &s, Clock::time_point deadline,
             RunResult &res)
{
    std::vector<double> seconds;
    do {
        const OpOutcome o = untracedOp(s);
        seconds.push_back(o.seconds);
        ++res.attempted;
        res.failed += o.ok ? 0 : 1;
    } while (Clock::now() < deadline);
    return seconds;
}

double
medianOf(const std::vector<TracedOp> &ops, double TracedOp::*field)
{
    std::vector<double> v;
    v.reserve(ops.size());
    for (const TracedOp &t : ops)
        v.push_back(t.*field);
    return median(std::move(v));
}

} // namespace

bool
isPlanWorkload(const std::string &name)
{
    return name == "clip10-4096" || name == "qwen70b-islands-2048";
}

RunResult
runPlanWorkload(const RunConfig &cfg, SpanLog &log)
{
    const PlanWorkloadSpec spec = specOf(cfg.workload);
    RunResult res;

    const std::unique_ptr<PlanSetup> s = setUp(spec);
    if (!s->refFits) {
        std::fprintf(stderr, "perfbench: %s reference plan exceeds HBM\n",
                     spec.name);
        ++res.failed;
    }

    const auto t_begin = Clock::now();
    const double setup_seconds =
        std::chrono::duration<double>(t_begin - cfg.started).count();
    if (!cfg.trace) {
        const std::vector<double> ops = untracedLoop(
            *s, t_begin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(cfg.seconds)),
            res);
        const double window = secondsSince(t_begin);
        res.samples = ops.size();
        res.add("latency_ms_p50", percentile(ops, 0.5) * 1e3, "ms");
        res.add("latency_ms_p90", percentile(ops, 0.9) * 1e3, "ms");
        res.add("throughput_ops_s", static_cast<double>(ops.size()) / window,
                "ops/s");
        res.add("sim_iter_per_s", 1.0 / s->refIterationSeconds, "1/s");
        res.add("setup_s", setup_seconds, "s");
        return res;
    }

    // Traced run: the first half measures untraced operations (the
    // overhead baseline), the second half traced ones.
    const auto half = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(cfg.seconds / 2));
    const std::vector<double> untraced =
        untracedLoop(*s, t_begin + half, res);
    std::vector<TracedOp> traced;
    const auto t_traced = Clock::now();
    do {
        traced.push_back(tracedOp(*s, spec.planner, log, res.attempted));
        ++res.attempted;
        res.failed += traced.back().ok ? 0 : 1;
    } while (Clock::now() < t_traced + half);
    res.samples = traced.size();

    const std::pair<const char *, double TracedOp::*> layer_ms[] = {
        {"cost.estimate_ms", &TracedOp::estimate},
        {"planner.allocate_ms", &TracedOp::allocate},
        {"planner.schedule_ms", &TracedOp::schedule},
        {"planner.place_ms", &TracedOp::place},
        {"planner.finalize_ms", &TracedOp::finalize},
        {"planner.plan_ms_p50", &TracedOp::plan},
        {"runtime.transmissions_ms", &TracedOp::transmissions},
        {"runtime.param_groups_ms", &TracedOp::paramGroups},
        {"runtime.memory_ms", &TracedOp::memory},
        {"runtime.engine_ms", &TracedOp::engine},
        {"runtime.dispatch_sync_ms", &TracedOp::dispatchSync},
    };
    for (const auto &[name, field] : layer_ms)
        res.add(name, medianOf(traced, field) * 1e3, "ms");

    double dark = 0, total = 0;
    for (const TracedOp &t : traced) {
        dark += t.dark;
        total += t.seconds;
    }
    const TracedOp &last = traced.back();
    const double ms = 1e3;
    res.add("graph.contract_ms", s->contractSeconds * ms, "ms");
    res.add("planner.waves", static_cast<double>(s->refWaves), "count");
    res.add("planner.memory_fallback", s->refFallback ? 1.0 : 0.0, "count");
    res.add("runtime.transmissions",
            static_cast<double>(last.numTransmissions), "count");
    res.add("runtime.transmission_bytes", last.transmissionBytes, "bytes");
    res.add("runtime.param_groups", static_cast<double>(last.numParamGroups),
            "count");
    res.add("runtime.sync_bytes", last.syncBytes, "bytes");
    res.add("runtime.peak_mem_frac", last.peakMemFrac, "fraction");
    res.add("sim.iteration_ms", s->refIterationSeconds * ms, "ms");
    res.add("sim.fwd_bwd_ms", s->refBreakdown.fwdBwd * ms, "ms");
    res.add("sim.sync_ms", s->refBreakdown.sync * ms, "ms");
    res.add("sim.send_recv_ms", s->refBreakdown.sendRecv * ms, "ms");
    res.add("sim.idle_frac", s->refIdleFrac, "fraction");
    res.add("sim.timeline_records", static_cast<double>(s->refRecords),
            "count");
    res.add("baselines.deepspeed_iteration_ms",
            s->deepspeedIterationSeconds * ms, "ms");
    res.add("baselines.speedup_vs_deepspeed",
            s->deepspeedIterationSeconds / s->refIterationSeconds, "x");
    res.add("trace.dark_frac", total > 0 ? dark / total : 0.0, "fraction");
    res.add("trace.overhead_frac",
            medianOf(traced, &TracedOp::seconds) / median(untraced) - 1.0,
            "fraction");
    return res;
}

} // namespace perfbench
