#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "runtime/sync_executor.h"
#include "runtime/transmission_executor.h"
#include "runtime/wave_dispatcher.h"

namespace spindle {

namespace {

using clock_type = std::chrono::steady_clock;

/** Adds the seconds of its lifetime to @p acc on destruction. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(double &acc) : acc_(acc) {}
    ~PhaseTimer()
    {
        acc_ += std::chrono::duration<double>(clock_type::now() - start_)
                    .count();
    }

  private:
    double &acc_;
    clock_type::time_point start_ = clock_type::now();
};

/**
 * Everything one plan needs to execute on a shared simulator. The
 * same bundle serves the base iteration and every mid-iteration
 * arrival, so all plans dispatch on an identical substrate. Its
 * transmission and parameter-group builds are timed into @p phases.
 */
struct PlanExecution
{
    PlanExecution(Simulator &sim, const HardwareModel &hw,
                  const MetaGraph &graph, const ExecutionPlan &plan,
                  const EngineOptions &options, EnginePhaseSeconds &phases)
        // Each timed lambda returns a prvalue that initializes its
        // member in place; its timer stops once the member is built.
        : trans([&] {
              PhaseTimer timer(phases.transmissions);
              return TransmissionExecutor(sim, hw.collectives(), graph,
                                          plan);
          }()),
          holders([&] {
              PhaseTimer timer(phases.paramGroups);
              return ParamHolderIndex::build(graph, plan);
          }()),
          pool([&] {
              PhaseTimer timer(phases.paramGroups);
              return ParameterGroupPool::build(holders, &hw.topology());
          }()),
          dispatcher(sim, hw, graph, plan, trans),
          syncer(sim, hw.collectives(), pool, options.collective)
    {
    }

    TransmissionExecutor trans;
    ParamHolderIndex holders;
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

/**
 * Upper bound on the timeline records one execution of @p plan
 * appends: each wave entry and each flow runs once per phase, and a
 * sync group occupies each device in at most three collective phases
 * (reduce-scatter, inter-island ring, all-gather).
 */
std::size_t
recordBound(const ExecutionPlan &plan, const TransmissionExecutor &trans,
            const ParameterGroupPool &pool)
{
    std::size_t n = 0;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries)
            n += 2 * e.devices.size();
        for (const TransmissionOp *t : trans.flowsInto(w.index, true))
            n += 2 * (t->srcDevices.size() + t->dstDevices.size());
    }
    for (const ParamGroup &g : pool.groups())
        n += 3 * g.devices.size();
    return n;
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
    const clock_type::time_point run_start = clock_type::now();
    FaultedIterationResult out;
    IterationResult &result = out.result;
    EnginePhaseSeconds &phases = result.phaseSeconds;
    // Dispatch + sync is the remainder of the run's wall-clock.
    const auto close_phases = [&] {
        phases.dispatchSync =
            std::chrono::duration<double>(clock_type::now() - run_start)
                .count() -
            phases.transmissions - phases.paramGroups - phases.memory;
    };
    if (arrival_end)
        arrival_end->clear();
    if (plan.waves.empty()) {
        // Refuse to silently drop injected work: an empty base plan
        // has no simulator to dispatch the arrivals on.
        panicIf(!arrivals.empty(),
                "runDynamic: arrivals with an empty base plan");
        panicIf(!faults.empty(),
                "runWithFaults: faults with an empty base plan");
        close_phases();
        return out;
    }

    Simulator sim(plan.numDevices);
    // The base iteration registers its events immediately...
    PlanExecution base(sim, hw_, graph, plan, options_, phases);
    // Room for all of its records in one allocation: grown by
    // doubling, the timeline frees about twice its final size per
    // run, which glibc may hand back to the OS for the next run to
    // fault in again.
    sim.timeline().reserve(recordBound(plan, base.trans, base.pool));
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
            sim, hw_, *a.graph, *a.plan, options_, phases);
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
    {
        PhaseTimer timer(phases.memory);
        result.peakMemoryBytes =
            peakMemoryPerDevice(base.holders, graph, hw_, mem_);
    }

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
        close_phases();
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
    close_phases();
    return out;
}

std::vector<double>
peakMemoryPerDevice(const MetaGraph &graph, const ExecutionPlan &plan,
                    const HardwareModel &hw, const MemoryModel &mem)
{
    return peakMemoryPerDevice(ParamHolderIndex::build(graph, plan), graph,
                               hw, mem);
}

std::vector<double>
peakMemoryPerDevice(const ParamHolderIndex &index, const MetaGraph &graph,
                    const HardwareModel &hw, const MemoryModel &mem)
{
    const std::vector<const WaveEntry *> &entries = index.entries;
    std::vector<double> peak(index.numDevices, 0.0);

    // Activations, stashed until the backward pass.
    std::vector<ParallelConfig> cfg(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const WaveEntry &e = *entries[i];
        const MetaOp &m = graph.metaOp(e.metaOp);
        cfg[i] = hw.bestConfig(memberDesc(m), e.n);
        const double act = mem.activationBytesPerDevice(m, e.numOps, cfg[i]);
        for (DeviceId d : e.devices)
            peak[d] += act;
    }

    // Parameter state of keys held by one entry: the same share on
    // each of its devices, so summed once per entry.
    std::vector<double> entry_state(entries.size(), 0.0);
    std::vector<std::size_t> shared;
    for (std::size_t k = 0; k < index.holders.size(); ++k) {
        const std::vector<ParamHolder> &hs = index.holders[k];
        if (hs.size() > 1) {
            shared.push_back(k);
            continue;
        }
        entry_state[hs[0].entry] += mem.paramStateShareBytes(
            hs[0].bytes, cfg[hs[0].entry], index.groupSize(k));
    }
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (entry_state[i] != 0)
            for (DeviceId d : entries[i]->devices)
                peak[d] += entry_state[i];

    // Keys held by several entries: each device stores the largest
    // share among the holders it belongs to, found with a per-key
    // stamp instead of a per-device map.
    std::vector<std::uint32_t> stamp(index.numDevices, 0);
    std::vector<double> share(index.numDevices, 0.0);
    std::vector<DeviceId> touched;
    std::uint32_t tag = 0;
    for (std::size_t k : shared) {
        ++tag;
        for (const ParamHolder &h : index.holders[k]) {
            const double s = mem.paramStateShareBytes(h.bytes, cfg[h.entry],
                                                      index.groupSize(k));
            for (DeviceId d : entries[h.entry]->devices) {
                if (stamp[d] != tag) {
                    stamp[d] = tag;
                    share[d] = s;
                    touched.push_back(d);
                } else if (s > share[d]) {
                    share[d] = s;
                }
            }
        }
        for (DeviceId d : touched)
            peak[d] += share[d];
        touched.clear();
    }
    return peak;
}

} // namespace spindle
