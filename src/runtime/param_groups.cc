#include "runtime/param_groups.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"

namespace spindle {

ParamHolderIndex
ParamHolderIndex::build(const MetaGraph &graph, const ExecutionPlan &plan)
{
    ParamHolderIndex out;
    out.numDevices = plan.numDevices;
    std::unordered_map<std::int64_t, std::uint32_t> id_of;
    for (const Wave &w : plan.waves) {
        for (const WaveEntry &e : w.entries) {
            panicIf(e.devices.empty(),
                    "ParamHolderIndex: plan is not placed");
            const DeviceId top =
                *std::max_element(e.devices.begin(), e.devices.end());
            panicIf(top >= plan.numDevices,
                    "ParamHolderIndex: plan is not placed: device ", top,
                    " of MetaOp ", e.metaOp, " >= numDevices ",
                    plan.numDevices);
            const auto entry = static_cast<std::uint32_t>(out.entries.size());
            out.entries.push_back(&e);
            const MetaOp &m = graph.metaOp(e.metaOp);
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                if (op.paramBytes <= 0)
                    continue;
                const auto [it, fresh] = id_of.try_emplace(
                    paramDedupKey(op),
                    static_cast<std::uint32_t>(out.rawKey.size()));
                if (fresh) {
                    out.rawKey.push_back(it->first);
                    out.holders.emplace_back();
                    out.bytes.push_back(0);
                }
                // An entry's member operators are scanned together,
                // so a repeat of the key within it is the last holder.
                std::vector<ParamHolder> &hs = out.holders[it->second];
                if (hs.empty() || hs.back().entry != entry)
                    hs.push_back({entry, op.paramBytes});
                else
                    hs.back().bytes = std::max(hs.back().bytes, op.paramBytes);
                double &bytes = out.bytes[it->second];
                bytes = std::max(bytes, op.paramBytes);
            }
        }
    }

    // One device group per distinct holder list: sort the keys by
    // their holder entries and take each run's union once, marking
    // devices with a per-device stamp (the group id + 1). A lone
    // holder's device set is the group as it stands.
    const auto &hs = out.holders;
    const auto same_list = [&hs](std::uint32_t a, std::uint32_t b) {
        return std::equal(hs[a].begin(), hs[a].end(), hs[b].begin(),
                          hs[b].end(), [](const auto &x, const auto &y) {
                              return x.entry == y.entry;
                          });
    };
    std::vector<std::uint32_t> order(hs.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&hs](std::uint32_t a, std::uint32_t b) {
                  return std::lexicographical_compare(
                      hs[a].begin(), hs[a].end(), hs[b].begin(),
                      hs[b].end(), [](const auto &x, const auto &y) {
                          return x.entry < y.entry;
                      });
              });
    out.group.assign(hs.size(), 0);
    std::vector<std::uint32_t> stamp(plan.numDevices, 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint32_t k = order[i];
        if (i > 0 && same_list(k, order[i - 1])) {
            out.group[k] = out.group[order[i - 1]];
            continue;
        }
        const auto g = static_cast<std::uint32_t>(out.groupDevices.size());
        out.group[k] = g;
        if (hs[k].size() == 1) {
            out.groupDevices.push_back(out.entries[hs[k][0].entry]->devices);
            continue;
        }
        DeviceId lo = plan.numDevices, hi = 0;
        for (const ParamHolder &h : hs[k]) {
            for (DeviceId d : out.entries[h.entry]->devices) {
                stamp[d] = g + 1;
                lo = std::min(lo, d);
                hi = std::max(hi, d);
            }
        }
        DeviceSet &devices = out.groupDevices.emplace_back();
        for (DeviceId d = lo; d <= hi; ++d)
            if (stamp[d] == g + 1)
                devices.push_back(d);
    }
    return out;
}

ParameterGroupPool
ParameterGroupPool::build(const MetaGraph &graph, const ExecutionPlan &plan,
                          const ClusterTopology *topo)
{
    return build(ParamHolderIndex::build(graph, plan), topo);
}

ParameterGroupPool
ParameterGroupPool::build(const ParamHolderIndex &index,
                          const ClusterTopology *topo)
{
    // Manage parameters with identical device groups collectively:
    // holder groups whose unions coincide merge into one pool group.
    // Groups are ordered largest set first, then ascending.
    const std::vector<DeviceSet> &sets = index.groupDevices;
    const auto larger_first = [&sets](std::uint32_t a, std::uint32_t b) {
        const DeviceSet &da = sets[a];
        const DeviceSet &db = sets[b];
        if (da.size() != db.size())
            return da.size() > db.size();
        return da < db;
    };
    std::vector<std::uint32_t> by_set(sets.size());
    std::iota(by_set.begin(), by_set.end(), 0u);
    std::sort(by_set.begin(), by_set.end(), larger_first);
    std::vector<ParamGroup> groups;
    std::vector<std::size_t> slot(sets.size());
    for (std::uint32_t g : by_set) {
        if (groups.empty() || groups.back().devices != sets[g])
            groups.emplace_back().devices = sets[g];
        slot[g] = groups.size() - 1;
    }
    // Each group sums its keys' bytes in ascending key order.
    std::vector<std::uint32_t> by_key(index.rawKey.size());
    std::iota(by_key.begin(), by_key.end(), 0u);
    std::sort(by_key.begin(), by_key.end(),
              [&index](std::uint32_t a, std::uint32_t b) {
                  return index.rawKey[a] < index.rawKey[b];
              });
    for (std::uint32_t k : by_key) {
        ParamGroup &g = groups[slot[index.group[k]]];
        g.bytes += index.bytes[k];
        g.numParams += 1;
    }

    // Bucket-fuse any group whose device set is a subset of another
    // group into the superset (the extra ranks contribute zero
    // gradient — a ring over g devices moves the same bytes, and
    // fusing removes a serialized collective): fold each group into
    // the first earlier group that contains it.
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
