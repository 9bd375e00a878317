/**
 * @file
 * Elastic failure recovery: drive multi-iteration training through
 * device/island failures, replanning on the surviving topology
 * (ROADMAP "Failure and elasticity scenarios").
 *
 * The RecoveryCoordinator owns the failure loop the Engine and the
 * planner deliberately stay out of:
 *
 *  - it converts a FaultPlan (iteration-relative fault events, base
 *    device ids) into absolute-time injections against the current
 *    plan, using the plan's fault-free makespan;
 *  - when a fault halts an iteration (Engine::runWithFaults), it
 *    derives the surviving island graph with
 *    ClusterTopology::withoutDevices(), charges the detection and
 *    restart penalties declared below, and replans the workload
 *    through a two-rung cascade: prefix-reusing replan() first, a
 *    memory-first plan() (placement memory weight boosted) second —
 *    accepting the first candidate that fits device memory, or the
 *    second with a warning when neither fits (graceful degradation
 *    beats stopping training);
 *  - all shapes share one PlanCache: contexts are keyed by topology
 *    fingerprint, so a recurring degraded shape (flapping device,
 *    symmetric failure) is served as a cache full hit instead of a
 *    fresh planning pass — the core of the recovery-latency win
 *    (bench_failure_recovery);
 *  - rejoin events grow the surviving set back at iteration
 *    boundaries (a device cannot rejoin mid-iteration without a plan
 *    that uses it), where the next plan is again one cache probe.
 *
 * Failed work accounting: an aborted iteration's partial progress is
 * lost — the iteration restarts from scratch on the survivors — so
 * wall-clock totals charge the failed fraction, the downtime
 * (detection + restart backoff + measured replan time), and the full
 * replanned iteration.
 */

#ifndef SPINDLE_RUNTIME_RECOVERY_H
#define SPINDLE_RUNTIME_RECOVERY_H

#include <functional>
#include <map>
#include <memory>

#include "planner/planner.h"
#include "runtime/engine.h"
#include "sim/fault.h"

namespace spindle {

/**
 * Seconds between a device dying and the runtime noticing (heartbeat
 * / NCCL timeout). Charged once per failure episode.
 */
inline constexpr double kDetectionSeconds = 0.5;

/**
 * Seconds to tear down and relaunch the affected processes before a
 * replanned iteration starts. Charged per cascade rung, rung a
 * (from 0) scaled by kRetryBackoff^a.
 */
inline constexpr double kRestartSeconds = 2.0;

/** Exponential backoff of the restart charge per further rung. */
inline constexpr double kRetryBackoff = 2.0;

/** Accounting of one failure episode (one aborted iteration). */
struct RecoveryOutcome
{
    /** Iteration the halting fault struck. */
    std::uint32_t iteration = 0;

    /** Within-iteration failure instant (simulated seconds). */
    double failureTime = 0;

    /** Devices this episode killed (base-topology ids). */
    DeviceSet failedDevices;

    /** All dead devices after the episode (base-topology ids). */
    DeviceSet cumulativeDead;

    /** Devices the replanned iteration runs on. */
    std::uint32_t survivingDevices = 0;

    /** Replan attempts consumed (1 = first replan() fit). */
    std::uint32_t attempts = 0;

    /** Cascade reached the memory-first rung. */
    bool usedMemoryFallback = false;

    /** False iff the cascade exhausted and the final candidate was
     *  accepted despite oversubscribing device memory. */
    bool fit = true;

    double detectionSeconds = 0; ///< kDetectionSeconds
    double restartSeconds = 0;   ///< restart charges incl. backoff
    double replanSeconds = 0;    ///< measured planner wall-clock

    /** detection + restart + replan: training stalled this long. */
    double downtimeSeconds = 0;

    /** Device-seconds of started work the abort invalidated. */
    double lostWorkSeconds = 0;

    /** Fault-free makespan of the aborted plan (throughput before). */
    double iterationSecondsBefore = 0;

    /** Makespan of the replanned iteration (throughput after). */
    double iterationSecondsAfter = 0;

    /** Cache reuse of the accepted attempt (all-zero off the
     *  replan() rung). */
    ReplanStats replan;

    /** Iterations/s after the failure relative to before (<= 1 when
     *  the shrunken cluster is slower, as expected). */
    double
    throughputRatio() const
    {
        return iterationSecondsAfter > 0
                   ? iterationSecondsBefore / iterationSecondsAfter
                   : 0;
    }
};

/** Aggregated recovery accounting across a faulted run. */
struct RecoveryStats
{
    std::uint32_t episodes = 0;
    std::uint32_t totalAttempts = 0;
    std::uint32_t memoryFallbacks = 0;  ///< episodes on the last rung
    std::uint32_t degradedAccepts = 0;  ///< cascade exhausted, accepted anyway
    std::uint32_t rejoinedDevices = 0;  ///< boundary rejoin events applied

    double totalDetectionSeconds = 0;
    double totalRestartSeconds = 0;
    double totalReplanSeconds = 0;
    double totalLostWorkSeconds = 0;
    double totalDowntimeSeconds = 0;

    /** Planner wall-clock of boundary replans (idle-device deaths
     *  and rejoins — topology changed without aborting work). */
    double boundaryReplanSeconds = 0;

    /** Per-episode detail, in episode order. */
    std::vector<RecoveryOutcome> outcomes;
};

/** What a faulted multi-iteration run yields. */
struct FaultedRunResult
{
    /** One completed result per iteration (replanned reruns
     *  included); aborted partial attempts are not listed — their
     *  cost lands in `recovery` and `totalSeconds`. */
    std::vector<IterationResult> iterations;

    RecoveryStats recovery;

    /** Wall-clock total: completed iterations + aborted fractions +
     *  recovery downtime. */
    double totalSeconds = 0;
};

/**
 * Drives a workload through a fault schedule with elastic recovery
 * (see file comment). One coordinator serves one workload on one
 * base cluster; run() may be called repeatedly (fresh runs, shared
 * plan cache — a recurring failure shape re-hits across runs).
 */
class RecoveryCoordinator
{
  public:
    /**
     * Observes each accepted recovery: the episode accounting, the
     * accepted planner output (new-id space), the surviving topology
     * it targets, and the id mapping back to the base cluster. The
     * chaos suite uses this to validate plans and pin byte-identity
     * against a from-scratch plan().
     */
    using EpisodeObserver = std::function<void(
        const RecoveryOutcome &, const PlannerOutput &,
        const ClusterTopology &, const DegradedTopology &)>;

    /**
     * @p hw is the healthy-cluster oracle (its topology is the base
     * id space every FaultEvent refers to; its HardwareParams carry
     * over to degraded oracles). Planner options apply to every
     * shape's planner, and every shape's engine charges memory under
     * `planner_options.memory`, so planner and engine read one memory
     * regime; `planner_options.cache` may share an external cache,
     * otherwise the coordinator's own cache is shared across shapes.
     */
    RecoveryCoordinator(const HardwareModel &hw, const MetaGraph &graph,
                        PlannerOptions planner_options = {},
                        EngineOptions engine_options = {});

    /** Run @p iterations iterations under @p faults. */
    FaultedRunResult run(const FaultPlan &faults,
                         std::uint32_t iterations);

    void setEpisodeObserver(EpisodeObserver obs)
    {
        observer_ = std::move(obs);
    }

    /** The cache shared by every shape's planner. */
    PlanCache &planCache() { return *cache_; }

  private:
    /** Everything one surviving shape needs: topology, oracle,
     *  planner, engine, and the current accepted plan. */
    struct ShapeState
    {
        ShapeState(DegradedTopology deg, const HardwareParams &hw_params,
                   const PlannerOptions &popts, const EngineOptions &eopts)
            : degraded(std::move(deg)), topo(degraded.config),
              hw(topo, hw_params), planner(hw, popts),
              engine(hw, popts.memory, eopts)
        {
        }

        DegradedTopology degraded; ///< id maps from the base cluster
        ClusterTopology topo;
        HardwareModel hw;
        ExecutionPlanner planner;
        Engine engine;

        PlannerOutput planned;
        bool hasPlan = false;

        /** Memoized fault-free makespan of `planned` (< 0: unknown). */
        double faultFreeSeconds = -1;
    };

    ShapeState &shapeFor(const DeviceSet &dead, bool ensure_plan);
    double faultFreeSeconds(ShapeState &st);
    bool fitsMemory(const ShapeState &st, const PlannerOutput &out) const;

    /** Base-topology devices a fault event kills. */
    DeviceSet eventDevices(const FaultEvent &ev) const;

    const HardwareModel &base_hw_;
    const MetaGraph &graph_;
    PlannerOptions planner_options_;
    EngineOptions engine_options_;

    std::unique_ptr<PlanCache> owned_cache_;
    PlanCache *cache_ = nullptr;

    /** Shape cache keyed by the dead set (base ids, ascending): two
     *  dead sets with identical surviving *shapes* still need their
     *  own id maps, but their planners share one cache context. */
    std::map<DeviceSet, std::unique_ptr<ShapeState>> shapes_;

    RecoveryStats stats_;
    EpisodeObserver observer_;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_RECOVERY_H
