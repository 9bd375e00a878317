/**
 * @file
 * Wavefront scheduler (paper §3.4, Alg. 1).
 *
 * Given a MetaLevel's discretized allocation plan, the scheduler
 * greedily crafts waves: (1) propose ASL-tuples to occupy as many
 * devices as possible, (2) extend allocations of tuples with large
 * remaining work when devices would idle, (3) slice the proposed
 * tuples so their time spans align with the shortest one, and
 * (4) conclude the wave. Per-level schedules are merged in MetaLevel
 * order, which reinstates all cross-level operator dependencies at
 * wave boundaries.
 */

#ifndef SPINDLE_PLANNER_WAVEFRONT_SCHEDULER_H
#define SPINDLE_PLANNER_WAVEFRONT_SCHEDULER_H

#include <vector>

#include "cost/scaling_curve.h"
#include "planner/execution_plan.h"

namespace spindle {

/** Scheduler tunables. */
struct SchedulerOptions
{
    /** Enable step 2 resource extension (ablatable). */
    bool extendResources = true;
};

/**
 * Crafts the wavefront schedule from per-level allocations.
 */
class WavefrontScheduler
{
  public:
    WavefrontScheduler(const MetaGraph &graph,
                       const std::vector<ScalingCurve> &curves,
                       std::uint32_t num_devices,
                       SchedulerOptions options = {});

    /**
     * Schedule one MetaLevel (Alg. 1).
     *
     * @param alloc allocator output for the level
     * @param t_start start time of the level's first wave
     * @param[in,out] waves waves are appended with global indices
     * @return the end time of the level's last wave
     */
    double scheduleLevel(const LevelAllocation &alloc, double t_start,
                         std::vector<Wave> &waves) const;

    /**
     * Schedule all levels in order ("Merging MetaLevels"). The waves
     * carry no readiness edges: the planner derives them once, on
     * the placed plan (ExecutionPlan::annotateReadiness).
     */
    std::vector<Wave>
    scheduleAll(const std::vector<LevelAllocation> &allocs) const;

  private:
    const MetaGraph &graph_;
    const std::vector<ScalingCurve> &curves_;
    std::uint32_t num_devices_;
    SchedulerOptions options_;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_WAVEFRONT_SCHEDULER_H
