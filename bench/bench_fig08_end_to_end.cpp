/**
 * @file
 * Reproduces Fig. 8: end-to-end iteration time of Spindle,
 * Spindle-Optimus, DistMM-MT, Megatron-LM and DeepSpeed across
 *  - Multitask-CLIP with 4 / 7 / 10 tasks on 8 / 16 / 32 GPUs,
 *  - OFASys with 4 / 7 tasks on 8 / 16 / 32 GPUs,
 *  - QWen-VAL (9.25B) with 3 tasks on 32 / 64 GPUs,
 * reporting each system's speedup over DeepSpeed (numbers above the
 * bars in the paper). Also prints the Tab. 1b workload inventory.
 */

#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

int
main()
{
    std::cout << "=== Tab. 1b: MT MM workload inventory ===\n";
    {
        Table inv({"model", "#params(B)", "#modalities", "#tasks",
                   "cross-modal module"});
        ComputationGraph clip = buildMultitaskClip({.numTasks = 10});
        ComputationGraph ofa = buildOfasys({.numTasks = 7});
        ComputationGraph qwen = buildQwenVal({});
        inv.addRow({"Multitask-CLIP",
                    Table::fmt(clip.totalUniqueParamBytes() / 2 / 1e9, 2),
                    "6", "10", "Contrastive Loss"});
        inv.addRow({"OFASys",
                    Table::fmt(ofa.totalUniqueParamBytes() / 2 / 1e9, 2),
                    "6", "7", "Enc-Dec LM"});
        inv.addRow({"QWen-VAL",
                    Table::fmt(qwen.totalUniqueParamBytes() / 2 / 1e9, 2),
                    "3", "3", "Dec-only LLM"});
        inv.printAligned(std::cout);
    }

    std::cout << "\n=== Fig. 8: end-to-end performance "
                 "(speedup vs DeepSpeed) ===\n";
    Table table({"workload", "cluster", "system", "iter_ms",
                 "speedup_vs_DS"});

    for (std::uint32_t tasks : {4u, 7u, 10u}) {
        ComputationGraph graph = buildMultitaskClip({.numTasks = tasks});
        for (std::uint32_t nodes : {1u, 2u, 4u})
            sweepSystems(strCat("Multitask-CLIP/", tasks, "T"), nodes,
                         graph, table);
    }
    for (std::uint32_t tasks : {4u, 7u}) {
        ComputationGraph graph = buildOfasys({.numTasks = tasks});
        for (std::uint32_t nodes : {1u, 2u, 4u})
            sweepSystems(strCat("OFASys/", tasks, "T"), nodes, graph,
                         table);
    }
    {
        ComputationGraph graph = buildQwenVal({});
        for (std::uint32_t nodes : {4u, 8u})
            sweepSystems("QWen-VAL-9B/3T", nodes, graph, table);
    }

    table.printAligned(std::cout);

    // Exposed-sync delta of the collective-algorithm selector on the
    // paper's homogeneous clusters (Spindle plan):
    // Auto may only match or beat the flat ring. Records merge into
    // BENCH_collectives.json next to bench_collectives' topologies.
    std::cout << "\n=== Exposed sync: FlatRing vs Auto collectives "
                 "===\n";
    Table sync_table({"workload", "cluster", "flat_sync_ms",
                      "auto_sync_ms", "delta_ms"});
    BenchJsonWriter json;
    if (!json.loadFile("BENCH_collectives.json"))
        std::cerr << "warning: malformed lines in existing "
                     "BENCH_collectives.json were dropped\n";
    struct Headline
    {
        std::string name;
        ComputationGraph graph;
        std::uint32_t nodes;
    };
    const std::vector<Headline> headline = []() {
        std::vector<Headline> v;
        v.push_back({"Multitask-CLIP/10T",
                     buildMultitaskClip({.numTasks = 10}), 4});
        v.push_back({"OFASys/7T", buildOfasys({.numTasks = 7}), 4});
        v.push_back({"QWen-VAL-9B/3T", buildQwenVal({}), 8});
        return v;
    }();
    for (const auto &[name, graph, nodes] : headline) {
        ClusterTopology topo = makeCluster(nodes);
        HardwareModel hw(topo);
        MetaGraph meta = contractGraph(graph);
        SpindleSystem sys(hw);

        EngineOptions options;
        options.collective = CollectiveKind::FlatRing;
        sys.setEngineOptions(options);
        const double flat_sync =
            sys.runIteration(meta).breakdown.sync;
        options.collective = CollectiveKind::Auto;
        sys.setEngineOptions(options);
        const double auto_sync =
            sys.runIteration(meta).breakdown.sync;

        sync_table.addRow({name, clusterLabel(nodes),
                           Table::fmt(toMs(flat_sync), 3),
                           Table::fmt(toMs(auto_sync), 3),
                           Table::fmt(toMs(flat_sync - auto_sync), 3)});
        json.record(strCat("fig08/", name, "/", clusterLabel(nodes)),
                    {{"gpus", double(nodes * 8)},
                     {"flat_sync_s", flat_sync},
                     {"auto_sync_s", auto_sync},
                     {"sync_delta_s", flat_sync - auto_sync}});
    }
    sync_table.printAligned(std::cout);
    if (!json.writeFile("BENCH_collectives.json"))
        std::cerr << "failed to write BENCH_collectives.json\n";
    return 0;
}
