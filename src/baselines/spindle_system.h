/**
 * @file
 * Spindle itself, packaged behind the common System interface so the
 * benchmark harnesses can sweep every competitor uniformly.
 */

#ifndef SPINDLE_BASELINES_SPINDLE_SYSTEM_H
#define SPINDLE_BASELINES_SPINDLE_SYSTEM_H

#include <atomic>
#include <memory>

#include "baselines/system.h"
#include "planner/planner.h"

namespace spindle {

/**
 * The full Spindle planner + runtime as a System.
 *
 * buildPlan() builds its planner once and reuses it (with its plan
 * cache) across calls, so concurrent buildPlan() on one instance is
 * not supported. Each plan runs serially on the calling thread;
 * parallelism belongs *across requests* behind a PlanService
 * (service/plan_service.h), not across threads sharing one
 * SpindleSystem. An atomic in-use guard panics with an actionable
 * message on that misuse (overlapping buildPlan calls are detected,
 * not raced).
 */
class SpindleSystem : public System
{
  public:
    explicit SpindleSystem(const HardwareModel &hw,
                           PlannerOptions options = {});

    std::string name() const override { return "Spindle"; }

    ExecutionPlan buildPlan(const MetaGraph &graph) const override;

    /** The planner's regime: plans are run as they were placed. */
    MemoryParams memoryParams() const override { return options_.memory; }

  private:
    PlannerOptions options_;

    /** Planner built by the first buildPlan() and reused after. */
    mutable std::unique_ptr<ExecutionPlanner> planner_;

    /** buildPlan() in-use guard: detects overlapping calls on one
     *  instance (an API misuse) before they corrupt planner_. */
    mutable std::atomic<bool> building_{false};
};

/**
 * The Fig. 10 ablation "Sp*: Spindle w/o DP": Spindle's waves with the
 * device placement of §3.5 replaced by assignConsecutiveDevices().
 */
class SpindleWithoutPlacement : public SpindleSystem
{
  public:
    explicit SpindleWithoutPlacement(const HardwareModel &hw)
        : SpindleSystem(hw)
    {
    }

    std::string name() const override { return "Spindle w/o DP"; }

    ExecutionPlan buildPlan(const MetaGraph &graph) const override;
};

} // namespace spindle

#endif // SPINDLE_BASELINES_SPINDLE_SYSTEM_H
