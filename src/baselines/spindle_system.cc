#include "baselines/spindle_system.h"

#include "common/logging.h"

namespace spindle {

SpindleSystem::SpindleSystem(const HardwareModel &hw,
                             PlannerOptions options)
    : System(hw), options_(options)
{
}

ExecutionPlan
SpindleSystem::buildPlan(const MetaGraph &graph) const
{
    // API-misuse tripwire, not a lock: overlapping calls would race
    // on planner_ and its cache. Panic — the *caller* holds the bug —
    // naming the contract and the supported alternatives.
    panicIf(building_.exchange(true, std::memory_order_acquire),
            "SpindleSystem::buildPlan: overlapping call on one "
            "instance. buildPlan caches the planner and its plan "
            "cache across calls, so calls must be serialized per "
            "instance; for concurrent planning give each thread its "
            "own SpindleSystem or submit requests through a "
            "PlanService (service/plan_service.h)");
    struct Guard
    {
        std::atomic<bool> &flag;
        ~Guard() { flag.store(false, std::memory_order_release); }
    } guard{building_};

    // The planner (and its plan cache) is kept across builds, so
    // revisited task mixes hit the cache.
    if (planner_ == nullptr)
        planner_ = std::make_unique<ExecutionPlanner>(hw_, options_);
    // Incremental: byte-identical to plan(graph), but arrivals and
    // departures pay for what they perturb, not for the cluster.
    return planner_->replan(graph).plan;
}

ExecutionPlan
SpindleWithoutPlacement::buildPlan(const MetaGraph &graph) const
{
    ExecutionPlan plan = SpindleSystem::buildPlan(graph);
    assignConsecutiveDevices(plan);
    // Readiness edges follow device groups: re-derive them.
    plan.annotateReadiness(graph);
    return plan;
}

} // namespace spindle
