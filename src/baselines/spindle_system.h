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
 * buildPlan() caches the planner (and its worker pool) across
 * calls, so concurrent buildPlan() on one instance is not supported
 * — matching ExecutionPlanner::plan(), which was never itself
 * thread-safe. Parallelism belongs *inside* a plan
 * (EngineOptions::plannerThreads) or *across requests* behind a
 * PlanService (service/plan_service.h), not across threads sharing
 * one SpindleSystem. The misuse used to corrupt the cached
 * planner/pool state silently; an atomic in-use guard now panics
 * with an actionable message instead (overlapping buildPlan calls —
 * including re-entry from a placement window-generator callback —
 * are detected, not raced).
 */
class SpindleSystem : public System
{
  public:
    explicit SpindleSystem(const HardwareModel &hw,
                           PlannerOptions options = {});

    std::string name() const override;

    ExecutionPlan buildPlan(const MetaGraph &graph) const override;

    /** The planner's regime: plans are run as they were placed. */
    MemoryParams memoryParams() const override { return options_.memory; }

    const PlannerOptions &plannerOptions() const { return options_; }

  private:
    PlannerOptions options_;

    /** Cached planner (owns the worker pool); rebuilt only when the
     *  effective thread count changes (see buildPlan). */
    mutable std::unique_ptr<ExecutionPlanner> planner_;

    /** buildPlan() in-use guard: detects overlapping calls on one
     *  instance (an API misuse) before they corrupt planner_. */
    mutable std::atomic<bool> building_{false};
};

/** Convenience: Spindle with the Fig. 10 sequential-placement
 *  ablation enabled ("Sp*: Spindle w/o DP" = without the device
 *  placement strategies of §3.5). */
SpindleSystem makeSpindleWithoutPlacement(const HardwareModel &hw);

} // namespace spindle

#endif // SPINDLE_BASELINES_SPINDLE_SYSTEM_H
