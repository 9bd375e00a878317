#include "baselines/system.h"

#include <chrono>

#include "common/logging.h"

namespace spindle {

System::System(const HardwareModel &hw)
    : hw_(hw)
{
}

SystemResult
System::runIteration(const MetaGraph &graph) const
{
    const auto t0 = std::chrono::steady_clock::now();
    ExecutionPlan plan = buildPlan(graph);
    // Every system dispatches on the same event-driven substrate:
    // ensure the readiness edges its dispatcher consumes are
    // annotated (planner-built plans already carry them).
    if (!plan.hasReadiness())
        plan.annotateReadiness(graph);
    const auto t1 = std::chrono::steady_clock::now();
    plan.validate(graph);

    Engine engine(hw_, memoryParams(), engine_options_);
    IterationResult iter = engine.run(graph, plan);

    SystemResult result;
    result.system = name();
    result.iterationSeconds = iter.iterationSeconds;
    result.breakdown = iter.breakdown;
    result.peakMemoryBytes = std::move(iter.peakMemoryBytes);
    result.timeline = std::move(iter.timeline);
    result.planningSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.theoreticalOptimum = plan.theoreticalOptimum;
    result.transmissionBytes = iter.transmissionBytes;
    result.syncBytes = iter.syncBytes;
    result.oversubscribed = iter.oversubscribed;
    return result;
}

std::uint32_t
System::largestValid(const MetaOp &m, std::uint32_t cap) const
{
    const std::vector<std::uint32_t> valid =
        hw_.validAllocations(m, cap);
    fatalIf(valid.empty(),
            "largestValid: MetaOp '", m.name,
            "' has no valid allocation within ", cap);
    return valid.back();
}

} // namespace spindle
