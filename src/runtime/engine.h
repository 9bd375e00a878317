/**
 * @file
 * Spindle runtime engine (paper §3.6), event-driven since the
 * dependency-dispatch refactor.
 *
 * One training iteration is dispatched as a dependency graph of
 * events on the cluster simulator rather than a sequence of global
 * barriers: the engine builds transmissions and one parameter-holder
 * index per plan (which feeds both the device-group pool and the
 * memory ledger), then hands the placed plan to a WaveDispatcher
 * that registers wave events on the discrete-event queue. Each wave
 * is admitted as soon as its own readiness predecessors finish, so
 * transmissions and parameter sync overlap compute where
 * dependencies allow. A SyncExecutor runs group-wise parameter
 * synchronization as each group's devices finish their backward
 * work, with the all-reduce algorithm EngineOptions::collective
 * selects (hardware/collective.h). Every busy
 * interval lands in the timeline, from which iteration time, the
 * Fig. 10 breakdown, and all utilization figures derive.
 *
 * runDynamic() additionally injects tasks mid-iteration through
 * scheduled events (the Fig. 13 dynamic-arrival scenario) instead
 * of requiring a full replan.
 *
 * runWithFaults() layers fault injection on top: scheduled device
 * failures fire as events, an affected iteration halts with its
 * lost work accounted (clipped timeline, aborted reservations), and
 * arrivals placed on dead devices are refused with a structured
 * ArrivalError instead of a panic. The RecoveryCoordinator
 * (runtime/recovery.h) drives replanning on the survivors and
 * charges the detection and restart constants it declares.
 */

#ifndef SPINDLE_RUNTIME_ENGINE_H
#define SPINDLE_RUNTIME_ENGINE_H

#include <optional>
#include <string>

#include "hardware/hardware_model.h"
#include "planner/execution_plan.h"
#include "runtime/memory_model.h"
#include "runtime/param_groups.h"
#include "runtime/transmission.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace spindle {

/** Iteration-time decomposition (Fig. 10). */
struct TimeBreakdown
{
    double fwdBwd = 0;   ///< forward + backward propagation
    double sync = 0;     ///< group-wise parameter synchronization
    double sendRecv = 0; ///< inter-wave transmissions

    double total() const { return fwdBwd + sync + sendRecv; }
};

/** The worst device of a plan that does not fit device memory. */
struct Oversubscription
{
    DeviceId device = 0;      ///< device with the highest peak over HBM
    double peakBytes = 0;     ///< its peak memory
    double capacityBytes = 0; ///< device HBM it exceeds
};

/**
 * Wall-clock the engine spent in each phase of one run, seconds,
 * summed over the base plan and every injected arrival. The phases
 * partition the run: their sum is the wall time of the engine call.
 */
struct EnginePhaseSeconds
{
    double transmissions = 0; ///< §3.6 step 2: transmission build
    double paramGroups = 0;   ///< holder index + group pool (step 3)
    double memory = 0;        ///< per-device memory ledger
    /** The rest: wave dispatch, the event-queue run executing
     *  compute, transmissions and sync, and result assembly. */
    double dispatchSync = 0;

    double total() const
    {
        return transmissions + paramGroups + memory + dispatchSync;
    }
};

/** Everything one simulated training iteration yields. */
struct IterationResult
{
    double iterationSeconds = 0;
    TimeBreakdown breakdown;

    /** Peak memory per device (params + optimizer + activations). */
    std::vector<double> peakMemoryBytes;

    /** Full execution trace for utilization analysis. */
    Timeline timeline;

    /** Parameter bytes synchronized across devices. */
    double syncBytes = 0;

    /** Bytes moved by inter-wave transmissions. */
    double transmissionBytes = 0;

    /** Set when some device's peak memory exceeds its HBM (a real
     *  run would OOM); empty when the plan fits. */
    std::optional<Oversubscription> oversubscribed;

    /** Where the engine's own wall-clock went (not simulated time). */
    EnginePhaseSeconds phaseSeconds;
};

/** Fixed overhead charged at each wave boundary (host-side dispatch
 *  of the next wave's kernels). */
inline constexpr double kWaveBarrier = 5 * kMicro;

/**
 * Engine tunables. The bucketed sync-overlap fractions are constants
 * shared with the collective oracle (kSyncOverlapFraction /
 * kMinSyncFraction in hardware/collective.h).
 */
struct EngineOptions
{
    /**
     * All-reduce algorithm of group-wise parameter sync, handed to
     * CollectiveModel per group. FlatRing (default) keeps the legacy
     * single-ring schedule bit for bit; Hierarchical splits each
     * cross-island group into intra-island reduce-scatter /
     * leader-ring / intra-island all-gather phases dispatched as
     * separate simulator reservations; ShardedHierarchical runs the
     * inter-island phase as min(smallest island slice, rail count)
     * concurrent per-rail rings (rails come from the fabric's
     * LinkParams); Auto picks the cheapest algorithm per group.
     */
    CollectiveKind collective = CollectiveKind::FlatRing;
};

/** One task (graph + placed plan) arriving mid-iteration. */
struct TaskArrival
{
    /** Simulated arrival time; dispatch begins no earlier. */
    double time = 0;

    const MetaGraph *graph = nullptr;
    const ExecutionPlan *plan = nullptr;
};

/**
 * Structured refusal of one mid-iteration arrival: its placement
 * needs a device that failed earlier in the iteration, so injecting
 * it would reserve a dead device. The caller replans the task on the
 * surviving topology instead; nothing panics.
 */
struct ArrivalError
{
    /** Index into the arrivals vector passed to runWithFaults(). */
    std::size_t index = 0;

    /** Actionable description naming the dead devices. */
    std::string message;
};

/**
 * What one iteration under fault injection yields. When no fault
 * strikes running work, `completed` is true and `result` matches
 * runDynamic() exactly. When a fault kills a device some started
 * execution depends on, the iteration halts: `result.timeline` is
 * truncated at the failure instant, the work performed so far is
 * accounted as lost (the recovery path restarts the iteration on
 * the survivors), and `result.iterationSeconds` is the failure time.
 */
struct FaultedIterationResult
{
    IterationResult result;

    /** False iff a fault halted the iteration. */
    bool completed = true;

    /** Time of the halting fault batch (0 when completed). */
    double failureTime = 0;

    /** All devices that failed during the run, ascending. */
    DeviceSet failedDevices;

    /** Device-seconds of started work invalidated by the halt. */
    double lostWorkSeconds = 0;

    /** Reservations still in flight at the halt instant. */
    std::uint32_t abortedReservations = 0;

    /** Arrivals refused because their placement needs a dead device. */
    std::vector<ArrivalError> arrivalErrors;
};

/**
 * The runtime engine: localizes a plan (implicitly, via the placed
 * device sets), inserts transmissions, builds the parameter
 * device-group pool, and dispatches the iteration on the simulator
 * through the event queue.
 */
class Engine
{
  public:
    explicit Engine(const HardwareModel &hw, MemoryParams mem_params = {},
                    EngineOptions options = {});

    /** Simulate one training iteration of a placed plan. */
    IterationResult run(const MetaGraph &graph,
                        const ExecutionPlan &plan) const;

    /**
     * Simulate one iteration of @p plan while additional tasks
     * arrive mid-iteration via events scheduled at their arrival
     * times, all sharing one simulator (and hence contending for
     * the same devices). Every plan must target the same cluster.
     * Arrivals may be listed in any time order — dispatch stably
     * sorts them by arrival time, so a permutation of the arrival
     * list cannot change the simulated outcome.
     *
     * The returned result carries the base plan's breakdown and
     * peak memory; iterationSeconds and the timeline cover
     * everything, including the injected tasks. When
     * @p arrival_end is non-null it receives each arrival's
     * completion time (sync included), in input order.
     */
    IterationResult runDynamic(const MetaGraph &graph,
                               const ExecutionPlan &plan,
                               const std::vector<TaskArrival> &arrivals,
                               std::vector<double> *arrival_end =
                                   nullptr) const;

    /**
     * runDynamic() under fault injection: @p faults are armed on the
     * shared simulator and fire as events. A fault that kills a
     * device no *started* execution touches lets the iteration keep
     * running — only future work must avoid the dead device, and an
     * arrival whose placement needs one is refused with a structured
     * ArrivalError (its arrival_end slot reads -1) instead of
     * panicking. A fault that hits started work halts the iteration:
     * in-flight reservations abort, the timeline is truncated at the
     * failure instant, and the partial work is reported as lost so
     * the recovery path (runtime/recovery.h) can charge it and
     * replan on the surviving topology.
     */
    FaultedIterationResult runWithFaults(
        const MetaGraph &graph, const ExecutionPlan &plan,
        const std::vector<InjectedFault> &faults,
        const std::vector<TaskArrival> &arrivals = {},
        std::vector<double> *arrival_end = nullptr) const;

    const HardwareModel &hardware() const { return hw_; }
    const MemoryModel &memory() const { return mem_; }
    const EngineOptions &options() const { return options_; }

  private:
    const HardwareModel &hw_;
    MemoryModel mem_;
    EngineOptions options_;
};

/**
 * Peak memory per device of a placed plan (Appendix G accounting):
 * the activations every entry stashes until the backward pass, plus
 * each parameter set's state, deduplicated by key per device — a
 * device hosting a key in several entries stores the largest share.
 * A share is MemoryModel::paramStateShareBytes, so ZeRO shards
 * optimizer state over the parameter's whole device group.
 *
 * The summation order is fixed: per device, activations in wave
 * order, then the summed state of each entry's single-entry keys in
 * wave order, then each multi-entry key in first-seen key order.
 */
std::vector<double> peakMemoryPerDevice(const MetaGraph &graph,
                                        const ExecutionPlan &plan,
                                        const HardwareModel &hw,
                                        const MemoryModel &mem);

/** The same ledger from an already built holder index. */
std::vector<double> peakMemoryPerDevice(const ParamHolderIndex &index,
                                        const MetaGraph &graph,
                                        const HardwareModel &hw,
                                        const MemoryModel &mem);

} // namespace spindle

#endif // SPINDLE_RUNTIME_ENGINE_H
