/**
 * @file
 * Reproduces Fig. 10: runtime breakdown (parameter sync, forward +
 * backward, inter-wave send & receive) for DeepSpeed (DS), Spindle
 * (Sp) and Spindle without device placement (Sp*, the sequential-
 * placement ablation of §5.4) on Multitask-CLIP 10T, OFASys 7T and
 * QWen-VAL 3T across cluster sizes. The send&recv share of total
 * time is labeled, and the ablation's comm inflation factor is
 * reported (paper: sequential placement costs 3-6x more comm,
 * up to 27% of the iteration).
 */

#include <iostream>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

void
breakdownRow(Table &table, const std::string &workload,
             std::uint32_t nodes, const SystemResult &r)
{
    const double total = r.iterationSeconds;
    table.addRow({workload, clusterLabel(nodes), r.system,
                  Table::fmt(toMs(r.breakdown.sync), 1),
                  Table::fmt(toMs(r.breakdown.fwdBwd), 1),
                  Table::fmt(toMs(r.breakdown.sendRecv), 1),
                  Table::fmt(toMs(total), 1),
                  Table::fmt(100 * r.breakdown.sendRecv / total, 1)});
}

} // namespace

int
main()
{
    std::cout << "=== Fig. 10: time breakdown (ms) and send&recv share; "
                 "Sp* = Spindle w/o device placement ===\n";
    Table table({"workload", "cluster", "system", "sync_ms",
                 "fwd_bwd_ms", "send_recv_ms", "total_ms",
                 "send_recv_pct"});
    Table ablation({"workload", "cluster", "comm_inflation_SpStar_vs_Sp"});

    struct Case
    {
        std::string name;
        ComputationGraph graph;
        std::vector<std::uint32_t> nodes;
    };
    std::vector<Case> cases;
    cases.push_back({"Multitask-CLIP/10T",
                     buildMultitaskClip({.numTasks = 10}), {1, 2}});
    cases.push_back({"OFASys/7T", buildOfasys({.numTasks = 7}), {1, 2}});
    cases.push_back({"QWen-VAL/3T", buildQwenVal({}), {4, 8}});

    for (const Case &c : cases) {
        for (std::uint32_t nodes : c.nodes) {
            ClusterTopology topo = makeCluster(nodes);
            HardwareModel hw(topo);
            MetaGraph meta = contractGraph(c.graph);

            SequentialSystem ds(hw, SequentialMode::DeepSpeed);
            SpindleSystem sp(hw);
            SpindleSystem sp_star = makeSpindleWithoutPlacement(hw);

            SystemResult r_ds = ds.runIteration(meta);
            SystemResult r_sp = sp.runIteration(meta);
            SystemResult r_star = sp_star.runIteration(meta);

            breakdownRow(table, c.name, nodes, r_ds);
            breakdownRow(table, c.name, nodes, r_sp);
            breakdownRow(table, c.name, nodes, r_star);

            const double inflation =
                r_sp.breakdown.sendRecv > 0
                    ? r_star.breakdown.sendRecv / r_sp.breakdown.sendRecv
                    : 0.0;
            ablation.addRow({c.name, clusterLabel(nodes),
                             Table::fmt(inflation, 2)});
        }
    }

    table.printAligned(std::cout);
    std::cout << "\nablation: inter-wave comm inflation of sequential "
                 "placement (Sp*) over Spindle placement (Sp):\n";
    ablation.printAligned(std::cout);
    return 0;
}
