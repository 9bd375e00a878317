/**
 * @file
 * Common interface of every training system under evaluation
 * (paper §5.1, Tab. 1a).
 *
 * Each system is characterized by the execution plan it builds for a
 * contracted workload graph; all systems then execute their plans on
 * the identical simulator substrate through the same runtime engine,
 * exactly like the paper's Appendix E simulation methodology.
 */

#ifndef SPINDLE_BASELINES_SYSTEM_H
#define SPINDLE_BASELINES_SYSTEM_H

#include <memory>
#include <optional>
#include <string>

#include "runtime/engine.h"

namespace spindle {

/** One measured training iteration of one system. */
struct SystemResult
{
    std::string system;
    double iterationSeconds = 0;
    TimeBreakdown breakdown;
    std::vector<double> peakMemoryBytes;
    Timeline timeline;

    /** Wall-clock spent building the execution plan. */
    double planningSeconds = 0;

    /** Theoretical optimum C~* when the system computes one (Spindle
     *  only, Fig. 11); 0 otherwise. */
    double theoreticalOptimum = 0;

    double transmissionBytes = 0;
    double syncBytes = 0;

    /** The worst device over HBM when the plan does not fit (see
     *  IterationResult::oversubscribed); empty when it fits. */
    std::optional<Oversubscription> oversubscribed;
};

/**
 * Abstract training system: strategy = how the plan is built.
 *
 * Execution is shared: every system's plan is annotated with
 * readiness edges and dispatched through the same event-driven
 * engine (WaveDispatcher / TransmissionExecutor / SyncExecutor), so
 * an EngineOptions change applies uniformly to all systems under
 * comparison.
 */
class System
{
  public:
    explicit System(const HardwareModel &hw);
    virtual ~System() = default;

    virtual std::string name() const = 0;

    /**
     * Build the system's execution plan (placed, validated by the
     * caller) for one iteration of the workload.
     */
    virtual ExecutionPlan buildPlan(const MetaGraph &graph) const = 0;

    /**
     * Memory accounting regime (ZeRO flags) the engine charges the
     * plan under in runIteration(). Systems whose planner shards
     * state return the regime they planned with, so a plan is run
     * under the same accounting it was placed under.
     */
    virtual MemoryParams memoryParams() const { return {}; }

    /**
     * Template method: build the plan, annotate its readiness
     * edges, validate it, execute one iteration on the simulator,
     * and package the measurements.
     */
    SystemResult runIteration(const MetaGraph &graph) const;

    /** Engine tunables — e.g. the collective algorithm selector
     *  (EngineOptions::collective) — used by every subsequent
     *  runIteration(). */
    void setEngineOptions(const EngineOptions &options)
    {
        engine_options_ = options;
    }

    const HardwareModel &hardware() const { return hw_; }

  protected:
    /** Largest valid allocation of @p m not exceeding @p cap. */
    std::uint32_t largestValid(const MetaOp &m, std::uint32_t cap) const;

    const HardwareModel &hw_;
    EngineOptions engine_options_;
};

/**
 * Placement without topology or memory awareness, for the systems
 * that skip §3.5 (DistMM-MT, the Fig. 10 "Spindle w/o DP" ablation):
 * wave by wave, in entry order, each entry takes the next n device
 * ids after a cursor that wraps at plan.numDevices and runs on across
 * waves. By design the result ignores the island structure, so it is
 * the same under any renumbering of the cluster.
 */
void assignConsecutiveDevices(ExecutionPlan &plan);

} // namespace spindle

#endif // SPINDLE_BASELINES_SYSTEM_H
