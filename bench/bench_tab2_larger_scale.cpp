/**
 * @file
 * Reproduces Tab. 2 (Appendix E): simulated iteration-time speedup
 * over DeepSpeed on larger-scale QWen-VAL workloads (30B and 70B
 * parameters) on a 256-GPU cluster. The paper finds Spindle
 * sustains > 1.3x while the other competitors stay near 1x.
 */

#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

int
main()
{
    std::cout << "=== Tab. 2: larger-scale simulation, 256 GPUs "
                 "(speedup vs DeepSpeed) ===\n";
    Table table({"workload", "system", "iter_ms", "speedup_vs_DS", "fits"});

    for (QwenValConfig::Size size :
         {QwenValConfig::Size::B30, QwenValConfig::Size::B70}) {
        const std::string label =
            size == QwenValConfig::Size::B30 ? "QWen-VAL 30B"
                                             : "QWen-VAL 70B";
        ComputationGraph graph =
            buildQwenVal({.size = size, .batch = 128});
        ClusterTopology topo = makeCluster(32); // 256 GPUs
        HardwareModel hw(topo);
        MetaGraph meta = contractGraph(graph);

        // >= 30B models need ZeRO-3-style parameter sharding to fit
        // 80 GB devices (as real deployments do).
        PlannerOptions planner_options;
        planner_options.memory.zeroShardParams = true;

        std::vector<std::unique_ptr<System>> systems;
        systems.push_back(
            std::make_unique<SpindleSystem>(hw, planner_options));
        systems.push_back(std::make_unique<SpindleOptimusSystem>(hw));
        systems.push_back(std::make_unique<DistMMMTSystem>(hw));
        systems.push_back(std::make_unique<SequentialSystem>(
            hw, SequentialMode::Megatron));
        systems.push_back(std::make_unique<SequentialSystem>(
            hw, SequentialMode::DeepSpeed));
        std::vector<SystemResult> results;
        for (const auto &sys : systems)
            results.push_back(sys->runIteration(meta));
        const double ds = results.back().iterationSeconds;
        for (const SystemResult &r : results) {
            // A row whose plan oversubscribes HBM would OOM on real
            // hardware: say so next to its (simulated) speedup.
            const auto &over = r.oversubscribed;
            const std::string fits =
                over ? "no (" + Table::fmt(over->peakBytes / GiB, 1) + "/" +
                           Table::fmt(over->capacityBytes / GiB, 0) + " GiB)"
                     : "yes";
            table.addRow({label, r.system,
                          Table::fmt(toMs(r.iterationSeconds), 1),
                          Table::fmt(ds / r.iterationSeconds, 2), fits});
        }
    }
    table.printAligned(std::cout);
    return 0;
}
