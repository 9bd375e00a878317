#include "runtime/engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "runtime/sync_executor.h"
#include "runtime/transmission_executor.h"
#include "runtime/wave_dispatcher.h"

namespace spindle {

namespace {

/**
 * Everything one plan needs to execute on a shared simulator. The
 * same bundle serves the base iteration and every mid-iteration
 * arrival, so all plans dispatch on an identical substrate.
 */
struct PlanExecution
{
    PlanExecution(Simulator &sim, const HardwareModel &hw,
                  const MetaGraph &graph, const ExecutionPlan &plan,
                  const EngineOptions &options)
        : trans(sim, hw.collectives(), graph, plan),
          pool(ParameterGroupPool::build(graph, plan, &hw.topology())),
          dispatcher(sim, hw, graph, plan, options, trans),
          syncer(sim, hw.collectives(), pool, options)
    {
    }

    TransmissionExecutor trans;
    ParameterGroupPool pool;
    WaveDispatcher dispatcher;
    SyncExecutor syncer;

    DispatchStats stats;
    SyncStats sync;
    bool finished = false;
};

/** Dispatch fwd + bwd + sync of one plan, starting at @p earliest. */
void
startExecution(PlanExecution &exec, double earliest)
{
    exec.dispatcher.start(earliest, [&exec](const DispatchStats &st) {
        exec.stats = st;
        exec.sync = exec.syncer.execute(st.fwdEnd, st.bwdEnd);
        exec.finished = true;
    });
}

/** Every device a placed plan reserves, ascending. */
DeviceSet
planDevices(const ExecutionPlan &plan)
{
    std::vector<bool> used(plan.numDevices, false);
    for (const Wave &w : plan.waves)
        for (const WaveEntry &e : w.entries)
            for (DeviceId d : e.devices)
                used[d] = true;
    DeviceSet out;
    for (DeviceId d = 0; d < plan.numDevices; ++d)
        if (used[d])
            out.push_back(d);
    return out;
}

} // namespace

Engine::Engine(const HardwareModel &hw, MemoryParams mem_params,
               EngineOptions options)
    : hw_(hw), mem_(mem_params), options_(options)
{
    RecoveryOptions &rec = options_.recovery;
    if (rec.detectionSeconds < 0) {
        warn(strCat("Engine: recovery.detectionSeconds = ",
                    rec.detectionSeconds,
                    " is negative; clamping to 0"));
        rec.detectionSeconds = 0;
    }
    if (rec.restartSeconds < 0) {
        warn(strCat("Engine: recovery.restartSeconds = ",
                    rec.restartSeconds, " is negative; clamping to 0"));
        rec.restartSeconds = 0;
    }
    if (rec.maxReplanAttempts == 0) {
        warn("Engine: recovery.maxReplanAttempts = 0 — recovery needs "
             "at least one attempt; raising to 1");
        rec.maxReplanAttempts = 1;
    }
    if (rec.maxReplanAttempts > 2) {
        warn(strCat("Engine: recovery.maxReplanAttempts = ",
                    rec.maxReplanAttempts,
                    " exceeds the two-rung replan cascade; clamping "
                    "to 2"));
        rec.maxReplanAttempts = 2;
    }
    if (rec.retryBackoff < 1) {
        warn(strCat("Engine: recovery.retryBackoff = ", rec.retryBackoff,
                    " is below 1 (backoff must not shrink delays); "
                    "clamping to 1"));
        rec.retryBackoff = 1;
    }
}

IterationResult
Engine::run(const MetaGraph &graph, const ExecutionPlan &plan) const
{
    return runDynamic(graph, plan, {});
}

IterationResult
Engine::runDynamic(const MetaGraph &graph, const ExecutionPlan &plan,
                   const std::vector<TaskArrival> &arrivals,
                   std::vector<double> *arrival_end) const
{
    // Fault-free runs take the same path as faulted ones; with no
    // faults armed the injector never fires, so the result is
    // bit-identical to the pre-fault-injection dispatcher.
    return runWithFaults(graph, plan, {}, arrivals, arrival_end).result;
}

FaultedIterationResult
Engine::runWithFaults(const MetaGraph &graph, const ExecutionPlan &plan,
                      const std::vector<InjectedFault> &faults,
                      const std::vector<TaskArrival> &arrivals,
                      std::vector<double> *arrival_end) const
{
    FaultedIterationResult out;
    IterationResult &result = out.result;
    if (arrival_end)
        arrival_end->clear();
    if (plan.waves.empty()) {
        // Refuse to silently drop injected work: an empty base plan
        // has no simulator to dispatch the arrivals on.
        panicIf(!arrivals.empty(),
                "runDynamic: arrivals with an empty base plan");
        panicIf(!faults.empty(),
                "runWithFaults: faults with an empty base plan");
        return out;
    }

    Simulator sim(plan.numDevices);
    // The base iteration registers its events immediately...
    PlanExecution base(sim, hw_, graph, plan, options_);
    startExecution(base, 0.0);
    const DeviceSet base_devices = planDevices(plan);

    // Fault batches arm before the arrival events so that a fault
    // and an arrival at the same instant resolve deterministically
    // as fault-first: the arrival sees the dead devices and is
    // refused instead of starting on hardware that is already gone.
    std::vector<char> started(arrivals.size(), 0);
    std::vector<DeviceSet> arrival_devices(arrivals.size());
    std::vector<std::unique_ptr<PlanExecution>> injected(arrivals.size());
    FaultInjector injector(sim, faults);
    injector.arm([&](double time, const DeviceSet &dead) {
        // Halt only when in-flight work depends on a dead device;
        // work that already drained survives the failure, and an
        // idle-device loss lets the iteration keep running — only
        // future injections must route around it. `finished` alone
        // is not "drained": the dispatcher reserves the sync tail
        // synchronously when the last wave completes, so a fault can
        // land inside reserved-but-unfinished sync intervals — the
        // execution is in flight until its iteration end.
        const auto in_flight = [time](const PlanExecution &e) {
            return !e.finished || time < e.sync.iterationEnd;
        };
        bool hit = in_flight(base) && intersects(base_devices, dead);
        for (std::size_t i = 0; i < arrivals.size() && !hit; ++i)
            hit = started[i] && in_flight(*injected[i]) &&
                  intersects(arrival_devices[i], dead);
        if (hit && out.completed) {
            out.completed = false;
            out.failureTime = time;
        }
        return hit;
    });

    // ... and each arriving task is injected through the event
    // queue at its arrival time, contending for the same devices.
    // Arrivals may be supplied in any order: dispatch processes them
    // by arrival time (stable — equal-time arrivals keep their input
    // order), so event registration, and with it every equal-time
    // tie-break in the simulator, is independent of the caller's
    // ordering. Results are still reported in input order.
    std::vector<std::size_t> order(arrivals.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&arrivals](std::size_t a, std::size_t b) {
                         return arrivals[a].time < arrivals[b].time;
                     });

    for (std::size_t idx : order) {
        const TaskArrival &a = arrivals[idx];
        panicIf(a.graph == nullptr || a.plan == nullptr,
                "runDynamic: null arrival");
        panicIf(a.time < 0, "runDynamic: negative arrival time");
        panicIf(a.plan->numDevices != plan.numDevices,
                "runDynamic: arrival targets a different cluster");
        panicIf(a.plan->waves.empty(), "runDynamic: empty arrival plan");
        arrival_devices[idx] = planDevices(*a.plan);
        injected[idx] = std::make_unique<PlanExecution>(
            sim, hw_, *a.graph, *a.plan, options_);
        PlanExecution *exec = injected[idx].get();
        const double at = a.time;
        sim.queue().schedule(at, [&out, &sim, &started, &arrival_devices,
                                  exec, idx, at] {
            if (sim.anyFailed(arrival_devices[idx])) {
                // The task's placement predates the failure; refuse
                // injection with a structured error the caller can
                // act on (replan the task on the survivors) instead
                // of tripping the simulator's dead-device panic.
                DeviceSet lost;
                for (DeviceId d : arrival_devices[idx])
                    if (sim.isFailed(d))
                        lost.push_back(d);
                out.arrivalErrors.push_back(
                    {idx, strCat("arrival ", idx, " at t=", at,
                                 " is placed on failed device(s) ",
                                 deviceSetStr(lost),
                                 "; replan it on the surviving "
                                 "topology before injecting")});
                return;
            }
            started[idx] = 1;
            startExecution(*exec, at);
        });
    }

    sim.queue().run();
    out.failedDevices = sim.failedDevices();
    result.peakMemoryBytes = peakMemoryPerDevice(graph, plan, hw_, mem_);

    if (!out.completed) {
        // A fault aborted the iteration: every started interval is
        // invalidated (the recovery path restarts the iteration from
        // scratch on the survivors), so all progress before the
        // failure counts as lost work. The reported timeline is
        // truncated at the failure instant — what the cluster
        // actually executed, not what the plan promised.
        const double t_f = out.failureTime;
        Timeline clipped;
        for (const ExecRecord &r : sim.timeline().records()) {
            out.lostWorkSeconds +=
                std::min(r.end, t_f) - std::min(r.start, t_f);
            if (r.end > t_f)
                ++out.abortedReservations;
            ExecRecord c = r;
            c.start = std::min(r.start, t_f);
            c.end = std::min(r.end, t_f);
            if (c.end > c.start)
                clipped.record(std::move(c));
        }
        result.timeline = std::move(clipped);
        result.iterationSeconds = t_f;
        return out;
    }

    panicIf(!base.finished, "runDynamic: base iteration never drained");
    result.iterationSeconds = base.sync.iterationEnd;
    result.breakdown.sync = base.sync.exposedSync;
    result.breakdown.sendRecv = base.stats.exposedSendRecv;
    result.breakdown.fwdBwd = result.iterationSeconds -
                              result.breakdown.sync -
                              result.breakdown.sendRecv;
    result.transmissionBytes = base.trans.totalBytes();
    result.syncBytes = base.pool.totalSyncBytes();
    for (std::size_t idx = 0; idx < injected.size(); ++idx) {
        const auto &exec = injected[idx];
        if (!started[idx]) {
            // Refused above (queue drained, so every arrival event
            // fired); its error is in arrivalErrors and its end slot
            // reads -1 to keep input-order alignment.
            if (arrival_end)
                arrival_end->push_back(-1.0);
            continue;
        }
        panicIf(!exec->finished, "runDynamic: arrival never drained");
        result.iterationSeconds =
            std::max(result.iterationSeconds, exec->sync.iterationEnd);
        result.transmissionBytes += exec->trans.totalBytes();
        result.syncBytes += exec->pool.totalSyncBytes();
        if (arrival_end)
            arrival_end->push_back(exec->sync.iterationEnd);
    }

    // Runtime memory validation: a placed plan promising more bytes
    // than a device's HBM would OOM on real hardware. The planner's
    // placement never commits such a plan, but hand-built and
    // baseline plans (whole-cluster replication) can; surface the
    // worst offender once, as a warning and in the result, instead
    // of failing the simulation.
    const double hbm = hw_.topology().device().memoryBytes;
    std::size_t worst = result.peakMemoryBytes.size();
    for (std::size_t d = 0; d < result.peakMemoryBytes.size(); ++d) {
        if (result.peakMemoryBytes[d] > hbm &&
            (worst == result.peakMemoryBytes.size() ||
             result.peakMemoryBytes[d] > result.peakMemoryBytes[worst]))
            worst = d;
    }
    if (worst != result.peakMemoryBytes.size()) {
        result.oversubscribed = Oversubscription{
            static_cast<DeviceId>(worst), result.peakMemoryBytes[worst],
            hbm};
        warn(strCat("Engine: placed plan oversubscribes device ", worst,
                    " (", result.peakMemoryBytes[worst] / GiB,
                    " GiB peak vs ", hbm / GiB, " GiB HBM)"));
    }

    // sim is local and done: hand its timeline over without a copy.
    result.timeline = std::move(sim.timeline());
    return out;
}

std::vector<double>
peakMemoryPerDevice(const MetaGraph &graph, const ExecutionPlan &plan,
                    const HardwareModel &hw, const MemoryModel &mem)
{
    // Pass 1: the parameter device group of every key (the union of
    // devices hosting it, §3.6 step 3) — ZeRO shards optimizer state
    // across the *group*, not just one entry's DP width.
    std::map<std::int64_t, DeviceSet> group_of;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            panicIf(e.devices.empty(),
                    "peakMemoryPerDevice: plan is not placed");
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

    // Pass 2: per device, parameter state deduplicated by key plus
    // all activations stashed until the backward pass.
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

} // namespace spindle
