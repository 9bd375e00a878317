#include "hardware/collective.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

const char *
collectiveKindName(CollectiveKind kind)
{
    switch (kind) {
    case CollectiveKind::FlatRing:
        return "FlatRing";
    case CollectiveKind::Hierarchical:
        return "Hierarchical";
    case CollectiveKind::Auto:
        return "Auto";
    case CollectiveKind::ShardedHierarchical:
        return "ShardedHierarchical";
    }
    panic("collectiveKindName: bad kind");
}

GroupDecomposition
decomposeByIsland(const ClusterTopology &topo, const DeviceSet &group)
{
    GroupDecomposition out;
    // Bucket members by island, through a per-island bucket slot.
    // Groups are canonical (ascending), so each bucket's devices come
    // out ascending and the first member appended to a bucket is its
    // lowest id — the elected leader.
    constexpr std::size_t kNoBucket = ~std::size_t{0};
    std::vector<std::size_t> bucket(topo.numIslands(), kNoBucket);
    for (DeviceId d : group) {
        const std::uint32_t island = topo.islandOf(d);
        if (bucket[island] == kNoBucket) {
            bucket[island] = out.islands.size();
            out.islands.push_back({island, {d}, d});
        } else {
            out.islands[bucket[island]].devices.push_back(d);
        }
    }
    std::sort(out.islands.begin(), out.islands.end(),
              [](const IslandGroup &a, const IslandGroup &b) {
                  return a.island < b.island;
              });
    out.leaders.reserve(out.islands.size());
    for (const IslandGroup &g : out.islands)
        out.leaders.push_back(g.leader);
    canonicalize(out.leaders);
    return out;
}

double
CollectiveSchedule::seconds() const
{
    double total = 0;
    for (const auto &stage : stages) {
        double slowest = 0;
        for (const CollectiveStep &step : stage)
            slowest = std::max(slowest, step.seconds);
        total += slowest;
    }
    return total;
}

// ---------------------------------------------------------------------
// Stateless ring formulas.

double
CollectiveModel::ringAllReduce(double bytes, std::uint32_t group_size,
                               const LinkParams &link)
{
    if (group_size <= 1 || bytes <= 0)
        return 0.0;
    const double g = static_cast<double>(group_size);
    return 2.0 * (g - 1.0) / g * bytes / link.bandwidth +
           2.0 * (g - 1.0) * link.latency;
}

double
CollectiveModel::ringAllGather(double bytes, std::uint32_t group_size,
                               const LinkParams &link)
{
    if (group_size <= 1 || bytes <= 0)
        return 0.0;
    const double g = static_cast<double>(group_size);
    return (g - 1.0) / g * bytes / link.bandwidth +
           (g - 1.0) * link.latency;
}

double
CollectiveModel::ringReduceScatter(double bytes, std::uint32_t group_size,
                                   const LinkParams &link)
{
    // Same (g-1)-step alpha-beta shape as the all-gather: each rank
    // forwards its running partial once around the ring and ends up
    // owning 1/g of the fully reduced vector.
    return ringAllGather(bytes, group_size, link);
}

namespace {

/**
 * Bottleneck collective class among the island pairs a spanning
 * group touches: the lowest-bandwidth pair class, the first such
 * pair in ascending island order on ties. Every cross-island ring
 * — the flat ring and the leader / per-rail stages alike — runs
 * over this one class.
 */
const LinkParams &
interBottleneck(const ClusterTopology &topo,
                const GroupDecomposition &decomp)
{
    if (topo.uniformLinks())
        return topo.config().interIslandCollective;
    const LinkParams *worst = nullptr;
    for (std::size_t i = 0; i < decomp.islands.size(); ++i) {
        for (std::size_t j = i + 1; j < decomp.islands.size(); ++j) {
            const LinkParams &link = topo.collectiveLink(
                decomp.islands[i].island, decomp.islands[j].island);
            if (worst == nullptr || link.bandwidth < worst->bandwidth)
                worst = &link;
        }
    }
    panicIf(worst == nullptr, "interBottleneck: single island");
    return *worst;
}

} // namespace

// ---------------------------------------------------------------------
// CollectiveModel.

CollectiveModel::CollectiveModel(const ClusterTopology &topo) : topo_(topo)
{
}

GroupDecomposition
CollectiveModel::decompose(const DeviceSet &group) const
{
    return decomposeByIsland(topo_, group);
}

double
CollectiveModel::allReduce(double bytes, const DeviceSet &group,
                           const GroupDecomposition &decomp,
                           CollectiveKind kind,
                           CollectiveSchedule *sched) const
{
    if (!decomp.spansIslands() || kind == CollectiveKind::FlatRing) {
        // One ring over the whole group: every algorithm degenerates
        // to it on a single island.
        const double t = ringAllReduce(
            bytes, static_cast<std::uint32_t>(group.size()),
            decomp.spansIslands()
                ? interBottleneck(topo_, decomp)
                : topo_.intraLink(decomp.islands.front().island));
        if (sched != nullptr)
            sched->stages.push_back({{group, t, "param_sync"}});
        return t;
    }

    // Ring reduce-scatter within each island, S concurrent rings
    // across the islands (ring r threads the r-th member of every
    // slice and carries bytes/S over its own rail), ring all-gather
    // back within each island. Hierarchical is S == 1, whose one
    // ring is the leader set; bytes / 1.0 is exact, so it prices
    // bit for bit like a dedicated leader ring.
    double rs_max = 0, ag_max = 0;
    std::vector<CollectiveStep> rs, ag;
    for (const IslandGroup &g : decomp.islands) {
        const LinkParams &intra = topo_.intraLink(g.island);
        const double rs_t = ringReduceScatter(bytes, g.size(), intra);
        const double ag_t = ringAllGather(bytes, g.size(), intra);
        rs_max = std::max(rs_max, rs_t);
        ag_max = std::max(ag_max, ag_t);
        if (sched != nullptr && g.size() > 1) {
            // Singleton island slices have no intra phase.
            rs.push_back({g.devices, rs_t, "param_sync_rs"});
            ag.push_back({g.devices, ag_t, "param_sync_ag"});
        }
    }
    const LinkParams &inter_link = interBottleneck(topo_, decomp);
    const std::uint32_t shards =
        kind == CollectiveKind::ShardedHierarchical
            ? std::min(decomp.minSliceSize(), inter_link.rails)
            : 1;
    const double inter = ringAllReduce(
        bytes / static_cast<double>(shards), decomp.numIslands(),
        inter_link);

    if (sched != nullptr) {
        if (!rs.empty())
            sched->stages.push_back(std::move(rs));
        // Disjoint steps of one stage overlap in the SyncExecutor,
        // which is what makes the per-rail rings concurrent.
        std::vector<CollectiveStep> rings;
        for (std::uint32_t r = 0; r < shards; ++r) {
            DeviceSet ring;
            ring.reserve(decomp.islands.size());
            for (const IslandGroup &g : decomp.islands)
                ring.push_back(g.devices[r]);
            canonicalize(ring);
            rings.push_back({std::move(ring), inter, "param_sync_xr"});
        }
        sched->stages.push_back(std::move(rings));
        if (!ag.empty())
            sched->stages.push_back(std::move(ag));
    }
    // Summed in stage order, as CollectiveSchedule::seconds() does.
    return rs_max + inter + ag_max;
}

double
CollectiveModel::allReduceTime(double bytes, const DeviceSet &group,
                               CollectiveKind kind,
                               const GroupDecomposition *decomp) const
{
    if (group.size() <= 1)
        return 0.0;
    GroupDecomposition local;
    if (decomp == nullptr) {
        local = decompose(group);
        decomp = &local;
    }
    return allReduce(bytes, group, *decomp,
                     resolveAuto(bytes, group, kind, decomp));
}

CollectiveKind
CollectiveModel::resolveAuto(double bytes, const DeviceSet &group,
                             CollectiveKind kind,
                             const GroupDecomposition *decomp) const
{
    if (kind != CollectiveKind::Auto)
        return kind;
    if (group.size() <= 1)
        return CollectiveKind::FlatRing;
    GroupDecomposition local;
    if (decomp == nullptr) {
        local = decompose(group);
        decomp = &local;
    }
    const double flat =
        allReduce(bytes, group, *decomp, CollectiveKind::FlatRing);
    const double hier =
        allReduce(bytes, group, *decomp, CollectiveKind::Hierarchical);
    const double sharded = allReduce(bytes, group, *decomp,
                                     CollectiveKind::ShardedHierarchical);
    // Tie order: the sharded schedule must beat *both* others
    // strictly (on rails == 1 fabrics it always ties hierarchical,
    // which keeps the pre-rails resolution), and the flat ring keeps
    // winning plain ties as it always has.
    if (sharded < hier && sharded < flat)
        return CollectiveKind::ShardedHierarchical;
    return hier < flat ? CollectiveKind::Hierarchical
                       : CollectiveKind::FlatRing;
}

CollectiveSchedule
CollectiveModel::allReduceSchedule(double bytes, const DeviceSet &group,
                                   CollectiveKind kind,
                                   const GroupDecomposition *decomp) const
{
    CollectiveSchedule sched;
    if (group.size() <= 1)
        return sched;
    GroupDecomposition local;
    if (decomp == nullptr) {
        local = decompose(group);
        decomp = &local;
    }
    allReduce(bytes, group, *decomp,
              resolveAuto(bytes, group, kind, decomp), &sched);
    return sched;
}

double
CollectiveModel::tpAllReduceTime(double bytes, std::uint32_t tp) const
{
    // TP collectives stay within one island (placement enforces the
    // preference), so they are charged at the default intra-island
    // class — where flat and hierarchical rings coincide.
    return ringAllReduce(bytes, tp, topo_.config().intraIsland);
}

FlowSource::FlowSource(const ClusterTopology &topo, const DeviceSet &src)
    : topo_(&topo), size_(static_cast<std::uint32_t>(src.size())),
      count_(topo.numIslands(), 0)
{
    // Without island-pair overrides every pair of distinct islands
    // uses the default point-to-point class (ClusterTopology::
    // interLink), so one class stands for the per-island scan.
    if (topo.config().islandLinks.empty())
        default_inter_ = &topo.config().interIsland;
    for (DeviceId d : src)
        ++count_[topo.islandOf(d)];
}

const LinkParams &
FlowSource::bestInter(std::uint32_t island)
{
    if (inter_.empty()) {
        inter_.assign(topo_->numIslands(), nullptr);
        for (std::uint32_t i = 0; i < count_.size(); ++i)
            if (count_[i] > 0)
                islands_.push_back(i);
    }
    const LinkParams *&best = inter_[island];
    if (best == nullptr) {
        for (std::uint32_t j : islands_) {
            if (j == island)
                continue;
            const LinkParams &l = topo_->interLink(j, island);
            if (best == nullptr || better(l, *best))
                best = &l;
        }
    }
    return *best;
}

namespace {

/** @p set itself when ascending, else a sorted copy in @p scratch. */
const DeviceSet &
sortedView(const DeviceSet &set, DeviceSet &scratch)
{
    if (std::is_sorted(set.begin(), set.end()))
        return set;
    scratch = set;
    std::sort(scratch.begin(), scratch.end());
    return scratch;
}

} // namespace

double
CollectiveModel::flowTime(double bytes, const DeviceSet &src,
                          const DeviceSet &dst) const
{
    panicIf(src.empty() || dst.empty(), "flowTime: empty device set");
    if (bytes <= 0)
        return 0.0;
    if (src == dst)
        return 0.0; // data already resident where it is consumed

    // Walk both sets in ascending order to tell which destination
    // devices are source devices themselves.
    DeviceSet src_scratch, dst_scratch;
    const DeviceSet &s = sortedView(src, src_scratch);
    const DeviceSet &d = sortedView(dst, dst_scratch);
    FlowSource source(topo_, src);
    LinkParams best{0.0, 0.0};
    auto it = s.begin();
    for (DeviceId x : d) {
        while (it != s.end() && *it < x)
            ++it;
        const LinkParams l =
            source.link(topo_.islandOf(x), it != s.end() && *it == x);
        if (FlowSource::better(l, best))
            best = l;
    }
    return source.seconds(bytes, dst.size(), best);
}

} // namespace spindle
