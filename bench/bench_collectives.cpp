/**
 * @file
 * Runtime-collective comparison: for each seed workload over
 * homogeneous and mixed-size island topologies, plan once and run
 * the identical placed plan with the FlatRing, Hierarchical,
 * ShardedHierarchical and Auto collective algorithms. Reports
 * exposed sync seconds per algorithm and the flat-vs-Auto delta —
 * the quantity the island-aware placements are rewarded with at
 * runtime — and emits the records into BENCH_collectives.json
 * (merged, so bench_fig08_end_to_end's rows coexist), which the CI
 * perf smoke gates against bench/baseline_collectives.json.
 */

#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

/**
 * Mixed-size island fabric that rewards hierarchy: the planner
 * sweeps' 12-GPU + 4-GPU island shape with a rail-constrained
 * (single 50 GB/s rail) inter-island collective class, slower than
 * the 200 GB/s NVLink.
 */
ClusterTopology
railConstrainedHetero(std::uint32_t num_nodes)
{
    ClusterConfig cfg = heteroClusterConfig(num_nodes);
    cfg.interIslandCollective = {50 * kGiga, 10 * kMicro};
    return ClusterTopology(cfg);
}

/**
 * The same mixed 12/4-GPU fabric with a multi-rail inter-island
 * collective class: min(4-GPU island slice, rails) concurrent rings,
 * the fabric the sharded algorithm is built for.
 */
ClusterTopology
railRichHetero(std::uint32_t num_nodes, std::uint32_t rails)
{
    ClusterConfig cfg = heteroClusterConfig(num_nodes);
    cfg.interIslandCollective = {50 * kGiga, 10 * kMicro, rails};
    return ClusterTopology(cfg);
}

struct KindRun
{
    double syncSeconds = 0;
    double iterSeconds = 0;
};

KindRun
runKind(const HardwareModel &hw, const MetaGraph &meta,
        const ExecutionPlan &plan, CollectiveKind kind)
{
    EngineOptions options;
    options.collective = kind;
    IterationResult r =
        Engine(hw, MemoryParams{}, options).run(meta, plan);
    return {r.breakdown.sync, r.iterationSeconds};
}

void
sweep(const std::string &workload, const ComputationGraph &graph,
      const std::string &cluster, ClusterTopology topo, Table &table,
      BenchJsonWriter &json)
{
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);
    PlannerOutput out = ExecutionPlanner(hw).plan(meta);

    const KindRun flat =
        runKind(hw, meta, out.plan, CollectiveKind::FlatRing);
    const KindRun hier =
        runKind(hw, meta, out.plan, CollectiveKind::Hierarchical);
    const KindRun sharded =
        runKind(hw, meta, out.plan, CollectiveKind::ShardedHierarchical);
    const KindRun aut = runKind(hw, meta, out.plan, CollectiveKind::Auto);

    table.addRow({workload, cluster, Table::fmt(toMs(flat.syncSeconds), 3),
                  Table::fmt(toMs(hier.syncSeconds), 3),
                  Table::fmt(toMs(sharded.syncSeconds), 3),
                  Table::fmt(toMs(aut.syncSeconds), 3),
                  Table::fmt(toMs(flat.syncSeconds - aut.syncSeconds), 3),
                  Table::fmt(toMs(aut.iterSeconds), 2)});
    json.record(strCat(workload, "/", cluster),
                {{"gpus", double(topo.numDevices())},
                 {"islands", double(topo.numIslands())},
                 {"rails", double(topo.config().interIslandCollective.rails)},
                 {"flat_sync_s", flat.syncSeconds},
                 {"hier_sync_s", hier.syncSeconds},
                 {"sharded_sync_s", sharded.syncSeconds},
                 {"auto_sync_s", aut.syncSeconds},
                 {"sync_delta_s", flat.syncSeconds - aut.syncSeconds},
                 {"sharded_delta_s", hier.syncSeconds - sharded.syncSeconds},
                 {"flat_iter_s", flat.iterSeconds},
                 {"auto_iter_s", aut.iterSeconds}});
}

} // namespace

int
main()
{
    std::cout << "=== Runtime collectives: exposed sync by algorithm "
                 "===\n";
    Table table({"workload", "cluster", "flat_sync_ms",
                 "hier_sync_ms", "sharded_sync_ms", "auto_sync_ms",
                 "delta_ms", "auto_iter_ms"});
    BenchJsonWriter json;
    if (!json.loadFile("BENCH_collectives.json"))
        std::cerr << "warning: malformed lines in existing "
                     "BENCH_collectives.json were dropped\n";

    for (std::uint32_t tasks : {4u, 10u}) {
        ComputationGraph graph = buildMultitaskClip({.numTasks = tasks});
        const std::string name = strCat("Multitask-CLIP/", tasks, "T");
        sweep(name, graph, "2Nodes(16GPUs)", makeCluster(2), table,
              json);
        sweep(name, graph, "hetero16(12+4,50G)",
              railConstrainedHetero(2), table, json);
    }
    for (std::uint32_t tasks : {4u, 7u}) {
        ComputationGraph graph = buildOfasys({.numTasks = tasks});
        const std::string name = strCat("OFASys/", tasks, "T");
        sweep(name, graph, "hetero16(12+4,50G)",
              railConstrainedHetero(2), table, json);
    }
    {
        ComputationGraph graph = buildQwenVal({});
        sweep("QWen-VAL-9B/3T", graph, "hetero32(12+4,50G)",
              railConstrainedHetero(4), table, json);
    }
    // Rail-rich sweep: the 64-GPU mixed fabric with 4 and 8 rails on
    // the inter-island class. The 4-GPU islands cap the shard count
    // at 4, so the 8-rail points pin rail saturation: sharded equals
    // the 4-rail fabric while Auto still beats Hierarchical >= 10%
    // (the perf-smoke gate in check_bench_regression.py).
    for (std::uint32_t rails : {4u, 8u}) {
        ComputationGraph graph = buildMultitaskClip({.numTasks = 10});
        sweep("Multitask-CLIP/10T", graph,
              strCat("hetero64(12+4,50Gx", rails, "r)"),
              railRichHetero(8, rails), table, json);
    }

    table.printAligned(std::cout);

    if (json.writeFile("BENCH_collectives.json"))
        std::cout << "\nwrote BENCH_collectives.json\n";
    else
        std::cerr << "\nfailed to write BENCH_collectives.json\n";
    return 0;
}
