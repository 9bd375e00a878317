#include "runtime/param_groups.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

ParameterGroupPool
ParameterGroupPool::build(const MetaGraph &graph,
                          const ExecutionPlan &plan,
                          const ClusterTopology *topo)
{
    // Parameter identity: shared keys map to themselves, private
    // operator parameters get a unique negative id.
    struct ParamInfo
    {
        DeviceSet devices;
        double bytes = 0;
    };
    std::map<std::int64_t, ParamInfo> params;

    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            panicIf(e.devices.empty(),
                    "ParameterGroupPool: plan is not placed");
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const std::int64_t key = paramDedupKey(op);
                ParamInfo &info = params[key];
                info.devices = unionOf(info.devices, e.devices);
                info.bytes = std::max(info.bytes, op.paramBytes);
            }
        }
    }

    // Manage parameters with identical device groups collectively;
    // additionally, bucket-fuse any group whose device set is a
    // subset of another group into the superset (the extra ranks
    // contribute zero gradient — a ring over g devices moves the
    // same bytes, and fusing removes a serialized collective).
    std::map<DeviceSet, ParamGroup> pool;
    for (const auto &[key, info] : params) {
        ParamGroup &g = pool[info.devices];
        g.devices = info.devices;
        g.bytes += info.bytes;
        g.numParams += 1;
    }

    std::vector<ParamGroup> groups;
    groups.reserve(pool.size());
    for (auto &[devices, group] : pool)
        groups.push_back(std::move(group));
    // Largest sets first; fold each group into the first earlier
    // group that contains it.
    std::sort(groups.begin(), groups.end(),
              [](const ParamGroup &a, const ParamGroup &b) {
                  if (a.devices.size() != b.devices.size())
                      return a.devices.size() > b.devices.size();
                  return a.devices < b.devices;
              });
    std::vector<ParamGroup> fused;
    for (ParamGroup &g : groups) {
        bool folded = false;
        for (ParamGroup &host : fused) {
            if (std::includes(host.devices.begin(), host.devices.end(),
                              g.devices.begin(), g.devices.end())) {
                host.bytes += g.bytes;
                host.numParams += g.numParams;
                folded = true;
                break;
            }
        }
        if (!folded)
            fused.push_back(std::move(g));
    }

    if (topo != nullptr) {
        for (ParamGroup &g : fused) {
            g.decomp = decomposeByIsland(*topo, g.devices);
            g.has_decomp = true;
        }
    }

    ParameterGroupPool out;
    out.groups_ = std::move(fused);
    return out;
}

double
ParameterGroupPool::totalSyncBytes() const
{
    double total = 0;
    for (const ParamGroup &g : groups_)
        if (g.devices.size() > 1)
            total += g.bytes;
    return total;
}

} // namespace spindle
