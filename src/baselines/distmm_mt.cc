#include "baselines/distmm_mt.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "planner/resource_allocator.h"
#include "planner/wavefront_scheduler.h"

namespace spindle {

DistMMMTSystem::DistMMMTSystem(const HardwareModel &hw,
                               EstimatorOptions estimator)
    : System(hw), estimator_(estimator)
{
}

ExecutionPlan
DistMMMTSystem::buildPlan(const MetaGraph &graph) const
{
    const std::uint32_t n = hw_.topology().numDevices();

    ScalabilityEstimator estimator(hw_, estimator_);
    std::vector<ScalingCurve> curves = estimator.estimateAll(graph, n);

    ResourceAllocator allocator(graph, curves, n);
    WavefrontScheduler scheduler(graph, curves, n);

    // Group the task's MetaOps by (task, level); allocate and
    // schedule each group with the whole cluster, tasks sequential.
    std::map<std::int32_t, std::map<std::int32_t, std::vector<MetaOpId>>>
        task_levels;
    for (const MetaOp &m : graph.metaOps())
        task_levels[m.taskId][m.level].push_back(m.id);

    ExecutionPlan plan;
    plan.numDevices = n;
    double t = 0;
    for (const auto &[task, levels] : task_levels) {
        for (const auto &[level, ids] : levels) {
            LevelAllocation alloc = allocator.allocateLevel(ids);
            t = scheduler.scheduleLevel(alloc, t, plan.waves);
        }
    }

    // DistMM does not model placement locality; consecutive devices.
    assignConsecutiveDevices(plan);
    return plan;
}

} // namespace spindle
