#include "graph/computation_graph.h"

#include <algorithm>
#include <map>
#include <queue>

#include "common/logging.h"

namespace spindle {

OpId
ComputationGraph::addOperator(OperatorDesc desc)
{
    checkFinalized(false);
    desc.id = static_cast<OpId>(ops_.size());
    ops_.push_back(std::move(desc));
    return ops_.back().id;
}

void
ComputationGraph::addEdge(OpId src, OpId dst)
{
    checkFinalized(false);
    fatalIf(src < 0 || static_cast<std::size_t>(src) >= ops_.size(),
            "addEdge: bad src ", src);
    fatalIf(dst < 0 || static_cast<std::size_t>(dst) >= ops_.size(),
            "addEdge: bad dst ", dst);
    fatalIf(src == dst, "addEdge: self-loop is not a DAG edge");
    edges_.push_back({src, dst});
}

void
ComputationGraph::finalize()
{
    checkFinalized(false);
    succ_.assign(ops_.size(), {});
    pred_.assign(ops_.size(), {});
    for (const Edge &e : edges_) {
        succ_[e.src].push_back(e.dst);
        pred_[e.dst].push_back(e.src);
    }

    // Kahn's algorithm both validates acyclicity and yields the
    // topological order used by graph contraction (§3.1).
    std::vector<std::size_t> in_deg(ops_.size());
    std::queue<OpId> ready;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        in_deg[i] = pred_[i].size();
        if (in_deg[i] == 0)
            ready.push(static_cast<OpId>(i));
    }
    topo_.clear();
    topo_.reserve(ops_.size());
    while (!ready.empty()) {
        OpId id = ready.front();
        ready.pop();
        topo_.push_back(id);
        for (OpId nxt : succ_[id]) {
            if (--in_deg[nxt] == 0)
                ready.push(nxt);
        }
    }
    fatalIf(topo_.size() != ops_.size(),
            "ComputationGraph::finalize: graph contains a cycle");
    finalized_ = true;
}

const OperatorDesc &
ComputationGraph::op(OpId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= ops_.size(),
            "op: bad id ", id);
    return ops_[id];
}

const std::vector<OpId> &
ComputationGraph::successors(OpId id) const
{
    checkFinalized(true);
    panicIf(id < 0 || static_cast<std::size_t>(id) >= succ_.size(),
            "successors: bad id ", id);
    return succ_[id];
}

const std::vector<OpId> &
ComputationGraph::predecessors(OpId id) const
{
    checkFinalized(true);
    panicIf(id < 0 || static_cast<std::size_t>(id) >= pred_.size(),
            "predecessors: bad id ", id);
    return pred_[id];
}

const std::vector<OpId> &
ComputationGraph::topoOrder() const
{
    checkFinalized(true);
    return topo_;
}

double
ComputationGraph::totalFlopsFwd() const
{
    double total = 0;
    for (const auto &o : ops_)
        total += o.flopsFwd;
    return total;
}

double
ComputationGraph::totalUniqueParamBytes() const
{
    double total = 0;
    std::map<ParamKey, double> shared;
    for (const auto &o : ops_) {
        if (o.paramKey == kNoParam) {
            total += o.paramBytes;
        } else {
            // Count each shared parameter set once, at its largest
            // reported size (they should all agree).
            auto [it, inserted] = shared.emplace(o.paramKey, o.paramBytes);
            if (!inserted)
                it->second = std::max(it->second, o.paramBytes);
        }
    }
    for (const auto &[key, bytes] : shared)
        total += bytes;
    return total;
}

void
ComputationGraph::checkFinalized(bool expect) const
{
    if (expect)
        panicIf(!finalized_, "graph must be finalized first");
    else
        panicIf(finalized_, "graph is already finalized");
}

} // namespace spindle
