/**
 * @file
 * Fig. 13 companion: dynamic task *arrival* at sub-iteration
 * granularity. Where bench_fig13 re-plans at every phase boundary,
 * this scenario injects a newly arriving task mid-iteration through
 * the simulator's event queue (Engine::runDynamic): the new task's
 * waves contend for devices with the in-flight iteration instead of
 * waiting for a full replan. Reported per cluster size and arrival
 * time: the arriving task's completion when injected immediately vs
 * deferred to the iteration boundary.
 */

#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

void
runCluster(std::uint32_t nodes, Table &table)
{
    ClusterTopology topo = makeCluster(nodes);
    HardwareModel hw(topo);
    ExecutionPlanner planner(hw);

    // In-flight iteration: Multitask-CLIP with 4 tasks; the arrival
    // is a single-task workload planned on the same cluster (plans
    // are per-workload; the event queue shares the devices).
    ArrivalScenario scenario(planner, /*base_tasks=*/4,
                             /*arrival_tasks=*/1);

    Engine engine(hw);
    const double iter =
        engine.run(scenario.base, scenario.baseOut.plan).iterationSeconds;
    for (double frac : {0.1, 0.3, 0.5, 0.7}) {
        std::vector<double> injected, deferred;
        engine.runDynamic(scenario.base, scenario.baseOut.plan,
                          {{frac * iter, &scenario.arrival,
                            &scenario.arrivalOut.plan}},
                          &injected);
        // The alternative: the arrival waits for the iteration
        // boundary.
        engine.runDynamic(scenario.base, scenario.baseOut.plan,
                          {{iter, &scenario.arrival,
                            &scenario.arrivalOut.plan}},
                          &deferred);
        table.addRow({clusterLabel(nodes), Table::fmt(100 * frac, 0),
                      Table::fmt(toMs(injected[0]), 2),
                      Table::fmt(toMs(deferred[0]), 2),
                      Table::fmt(deferred[0] / injected[0], 2)});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::cout << "=== Fig. 13 companion: mid-iteration task arrival "
                 "through the event queue ===\n";

    // Default sweep: the paper's 2-node testbed plus a 64-GPU point;
    // override with explicit node counts on the command line.
    std::vector<std::uint32_t> node_counts{2, 8};
    if (argc > 1) {
        node_counts.clear();
        for (int i = 1; i < argc; ++i)
            node_counts.push_back(static_cast<std::uint32_t>(
                std::strtoul(argv[i], nullptr, 10)));
    }

    Table table({"cluster", "arrival_at_pct", "inject_done_ms",
                 "deferred_done_ms", "speedup"});
    for (std::uint32_t nodes : node_counts)
        runCluster(nodes, table);

    table.printAligned(std::cout);
    std::cout << "\ninject_done: arriving task completion when its "
                 "waves are dispatched as events into the running "
                 "iteration; deferred_done: when it waits for the "
                 "iteration boundary.\n";
    return 0;
}
