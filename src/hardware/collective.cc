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
    // Bucket members by island. Groups are canonical (ascending), so
    // each bucket's devices come out ascending and the first member
    // appended to a bucket is its lowest id — the elected leader.
    for (DeviceId d : group) {
        const std::uint32_t island = topo.islandOf(d);
        auto it = std::find_if(out.islands.begin(), out.islands.end(),
                               [island](const IslandGroup &g) {
                                   return g.island == island;
                               });
        if (it == out.islands.end()) {
            out.islands.push_back({island, {d}, d});
        } else {
            it->devices.push_back(d);
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

/** The historical single-ring model over groupLink's bottleneck. */
class FlatRingAlgorithm final : public CollectiveAlgorithm
{
  public:
    using CollectiveAlgorithm::CollectiveAlgorithm;

    CollectiveKind kind() const override
    {
        return CollectiveKind::FlatRing;
    }

    double
    allReduce(double bytes, const DeviceSet &group,
              const GroupDecomposition &) const override
    {
        if (group.size() <= 1)
            return 0.0;
        return CollectiveModel::ringAllReduce(
            bytes, static_cast<std::uint32_t>(group.size()),
            topo_.groupLink(group));
    }

    double
    allGather(double bytes, const DeviceSet &group,
              const GroupDecomposition &) const override
    {
        if (group.size() <= 1)
            return 0.0;
        return CollectiveModel::ringAllGather(
            bytes, static_cast<std::uint32_t>(group.size()),
            topo_.groupLink(group));
    }

    CollectiveSchedule
    allReduceSchedule(double bytes, const DeviceSet &group,
                      const GroupDecomposition &decomp,
                      const std::string &label) const override
    {
        CollectiveSchedule sched;
        sched.stages.push_back(
            {{group, allReduce(bytes, group, decomp), label}});
        return sched;
    }
};

/**
 * Bottleneck collective class among the island pairs the group
 * spans — the same bottleneck rule ClusterTopology::groupLink
 * applies, so per-island-pair overrides are respected. Shared by the
 * hierarchical and sharded-hierarchical algorithms.
 */
LinkParams
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

/**
 * Three-phase island-aware schedule: ring reduce-scatter within each
 * island (intra class), ring all-reduce across per-island leaders
 * (bottleneck inter-island collective class), ring all-gather back
 * within each island. Single-island groups degenerate exactly to
 * the flat ring (identical formula over the identical link class).
 */
class HierarchicalAlgorithm final : public CollectiveAlgorithm
{
  public:
    using CollectiveAlgorithm::CollectiveAlgorithm;

    CollectiveKind kind() const override
    {
        return CollectiveKind::Hierarchical;
    }

    double
    allReduce(double bytes, const DeviceSet &group,
              const GroupDecomposition &decomp) const override
    {
        if (group.size() <= 1)
            return 0.0;
        if (!decomp.spansIslands())
            return CollectiveModel::ringAllReduce(
                bytes, static_cast<std::uint32_t>(group.size()),
                topo_.groupLink(group));
        double rs_max = 0, ag_max = 0;
        for (const IslandGroup &g : decomp.islands) {
            const LinkParams &intra = topo_.intraLink(g.island);
            rs_max = std::max(rs_max, CollectiveModel::ringReduceScatter(
                                          bytes, g.size(), intra));
            ag_max = std::max(ag_max, CollectiveModel::ringAllGather(
                                          bytes, g.size(), intra));
        }
        const double inter = CollectiveModel::ringAllReduce(
            bytes, decomp.numIslands(), interBottleneck(topo_, decomp));
        return rs_max + inter + ag_max;
    }

    double
    allGather(double bytes, const DeviceSet &group,
              const GroupDecomposition &decomp) const override
    {
        if (group.size() <= 1)
            return 0.0;
        if (!decomp.spansIslands())
            return CollectiveModel::ringAllGather(
                bytes, static_cast<std::uint32_t>(group.size()),
                topo_.groupLink(group));
        // Leaders all-gather across islands, then every island
        // broadcasts inward via its intra all-gather.
        double ag_max = 0;
        for (const IslandGroup &g : decomp.islands)
            ag_max = std::max(ag_max,
                              CollectiveModel::ringAllGather(
                                  bytes, g.size(),
                                  topo_.intraLink(g.island)));
        return CollectiveModel::ringAllGather(
                   bytes, decomp.numIslands(), interBottleneck(topo_, decomp)) +
               ag_max;
    }

    CollectiveSchedule
    allReduceSchedule(double bytes, const DeviceSet &group,
                      const GroupDecomposition &decomp,
                      const std::string &label) const override
    {
        CollectiveSchedule sched;
        if (group.size() <= 1)
            return sched;
        if (!decomp.spansIslands()) {
            // Exact flat-ring degeneration, single step included.
            sched.stages.push_back(
                {{group, allReduce(bytes, group, decomp), label}});
            return sched;
        }

        std::vector<CollectiveStep> rs, ag;
        for (const IslandGroup &g : decomp.islands) {
            if (g.size() <= 1)
                continue; // singleton island slices have no intra phase
            const LinkParams &intra = topo_.intraLink(g.island);
            rs.push_back({g.devices,
                          CollectiveModel::ringReduceScatter(
                              bytes, g.size(), intra),
                          label + "_rs"});
            ag.push_back({g.devices,
                          CollectiveModel::ringAllGather(bytes, g.size(),
                                                         intra),
                          label + "_ag"});
        }
        if (!rs.empty())
            sched.stages.push_back(std::move(rs));
        sched.stages.push_back({{decomp.leaders,
                                 CollectiveModel::ringAllReduce(
                                     bytes, decomp.numIslands(),
                                     interBottleneck(topo_, decomp)),
                                 label + "_xr"}});
        if (!ag.empty())
            sched.stages.push_back(std::move(ag));
        return sched;
    }
};

/**
 * Rail-optimized hierarchical schedule: identical intra phases, but
 * the inter-island stage runs S = min(smallest island slice,
 * bottleneck rail count) concurrent rings, ring r threading the r-th
 * member of every island slice and carrying bytes/S over its own
 * rail. S == 1 (any rails == 1 fabric, or a singleton slice capping
 * the rings) reproduces the hierarchical algorithm bit for bit —
 * bytes/1 is exact in IEEE — and single-island groups degenerate to
 * the flat ring like every algorithm here.
 */
class ShardedHierarchicalAlgorithm final : public CollectiveAlgorithm
{
  public:
    using CollectiveAlgorithm::CollectiveAlgorithm;

    CollectiveKind kind() const override
    {
        return CollectiveKind::ShardedHierarchical;
    }

    /** Concurrent inter-island rings this group can sustain. */
    std::uint32_t
    shardCount(const GroupDecomposition &decomp,
               const LinkParams &inter) const
    {
        return std::min(decomp.minSliceSize(), inter.rails);
    }

    double
    allReduce(double bytes, const DeviceSet &group,
              const GroupDecomposition &decomp) const override
    {
        if (group.size() <= 1)
            return 0.0;
        if (!decomp.spansIslands())
            return CollectiveModel::ringAllReduce(
                bytes, static_cast<std::uint32_t>(group.size()),
                topo_.groupLink(group));
        double rs_max = 0, ag_max = 0;
        for (const IslandGroup &g : decomp.islands) {
            const LinkParams &intra = topo_.intraLink(g.island);
            rs_max = std::max(rs_max, CollectiveModel::ringReduceScatter(
                                          bytes, g.size(), intra));
            ag_max = std::max(ag_max, CollectiveModel::ringAllGather(
                                          bytes, g.size(), intra));
        }
        const LinkParams inter_link = interBottleneck(topo_, decomp);
        const double shards =
            static_cast<double>(shardCount(decomp, inter_link));
        const double inter = CollectiveModel::ringAllReduce(
            bytes / shards, decomp.numIslands(), inter_link);
        return rs_max + inter + ag_max;
    }

    double
    allGather(double bytes, const DeviceSet &group,
              const GroupDecomposition &decomp) const override
    {
        if (group.size() <= 1)
            return 0.0;
        if (!decomp.spansIslands())
            return CollectiveModel::ringAllGather(
                bytes, static_cast<std::uint32_t>(group.size()),
                topo_.groupLink(group));
        double ag_max = 0;
        for (const IslandGroup &g : decomp.islands)
            ag_max = std::max(ag_max,
                              CollectiveModel::ringAllGather(
                                  bytes, g.size(),
                                  topo_.intraLink(g.island)));
        const LinkParams inter_link = interBottleneck(topo_, decomp);
        const double shards =
            static_cast<double>(shardCount(decomp, inter_link));
        return CollectiveModel::ringAllGather(
                   bytes / shards, decomp.numIslands(), inter_link) +
               ag_max;
    }

    CollectiveSchedule
    allReduceSchedule(double bytes, const DeviceSet &group,
                      const GroupDecomposition &decomp,
                      const std::string &label) const override
    {
        CollectiveSchedule sched;
        if (group.size() <= 1)
            return sched;
        if (!decomp.spansIslands()) {
            sched.stages.push_back(
                {{group, allReduce(bytes, group, decomp), label}});
            return sched;
        }

        std::vector<CollectiveStep> rs, ag;
        for (const IslandGroup &g : decomp.islands) {
            if (g.size() <= 1)
                continue; // singleton island slices have no intra phase
            const LinkParams &intra = topo_.intraLink(g.island);
            rs.push_back({g.devices,
                          CollectiveModel::ringReduceScatter(
                              bytes, g.size(), intra),
                          label + "_rs"});
            ag.push_back({g.devices,
                          CollectiveModel::ringAllGather(bytes, g.size(),
                                                         intra),
                          label + "_ag"});
        }
        if (!rs.empty())
            sched.stages.push_back(std::move(rs));

        // One stage of S disjoint per-rail rings: ring r threads the
        // r-th member of every island slice (valid because S never
        // exceeds the smallest slice), so ring 0 is exactly the
        // leader set and S == 1 reproduces the hierarchical stage
        // byte for byte. Disjoint steps of one stage overlap in the
        // SyncExecutor, which is what makes the rings concurrent.
        const LinkParams inter_link = interBottleneck(topo_, decomp);
        const std::uint32_t shards = shardCount(decomp, inter_link);
        const double ring_seconds = CollectiveModel::ringAllReduce(
            bytes / static_cast<double>(shards), decomp.numIslands(),
            inter_link);
        std::vector<CollectiveStep> inter;
        for (std::uint32_t r = 0; r < shards; ++r) {
            DeviceSet ring;
            ring.reserve(decomp.islands.size());
            for (const IslandGroup &g : decomp.islands)
                ring.push_back(g.devices[r]);
            canonicalize(ring);
            inter.push_back({std::move(ring), ring_seconds,
                             label + "_xr"});
        }
        sched.stages.push_back(std::move(inter));

        if (!ag.empty())
            sched.stages.push_back(std::move(ag));
        return sched;
    }
};

} // namespace

// ---------------------------------------------------------------------
// CollectiveModel.

CollectiveModel::CollectiveModel(const ClusterTopology &topo)
    : topo_(topo), flat_(std::make_unique<FlatRingAlgorithm>(topo)),
      hierarchical_(std::make_unique<HierarchicalAlgorithm>(topo)),
      sharded_(std::make_unique<ShardedHierarchicalAlgorithm>(topo))
{
}

CollectiveModel::~CollectiveModel() = default;

const CollectiveAlgorithm &
CollectiveModel::algorithm(CollectiveKind kind) const
{
    switch (kind) {
    case CollectiveKind::FlatRing:
        return *flat_;
    case CollectiveKind::Hierarchical:
        return *hierarchical_;
    case CollectiveKind::ShardedHierarchical:
        return *sharded_;
    case CollectiveKind::Auto:
        break;
    }
    panic("CollectiveModel::algorithm: Auto has no fixed algorithm; "
          "resolve it per call with resolveAuto()");
}

GroupDecomposition
CollectiveModel::decompose(const DeviceSet &group) const
{
    return decomposeByIsland(topo_, group);
}

double
CollectiveModel::allReduceTime(double bytes, const DeviceSet &group) const
{
    if (group.size() <= 1)
        return 0.0;
    return ringAllReduce(bytes, static_cast<std::uint32_t>(group.size()),
                         topo_.groupLink(group));
}

double
CollectiveModel::allGatherTime(double bytes, const DeviceSet &group) const
{
    if (group.size() <= 1)
        return 0.0;
    return ringAllGather(bytes, static_cast<std::uint32_t>(group.size()),
                         topo_.groupLink(group));
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
    if (kind == CollectiveKind::Auto)
        kind = resolveAuto(bytes, group, kind, decomp);
    return algorithm(kind).allReduce(bytes, group, *decomp);
}

double
CollectiveModel::allGatherTime(double bytes, const DeviceSet &group,
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
    if (kind == CollectiveKind::Auto) {
        const double flat = flat_->allGather(bytes, group, *decomp);
        const double hier =
            hierarchical_->allGather(bytes, group, *decomp);
        const double sharded = sharded_->allGather(bytes, group, *decomp);
        return std::min(std::min(flat, hier), sharded);
    }
    return algorithm(kind).allGather(bytes, group, *decomp);
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
    const double flat = flat_->allReduce(bytes, group, *decomp);
    const double hier = hierarchical_->allReduce(bytes, group, *decomp);
    const double sharded = sharded_->allReduce(bytes, group, *decomp);
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
                                   const std::string &label,
                                   const GroupDecomposition *decomp) const
{
    CollectiveSchedule empty;
    if (group.size() <= 1)
        return empty;
    GroupDecomposition local;
    if (decomp == nullptr) {
        local = decompose(group);
        decomp = &local;
    }
    kind = resolveAuto(bytes, group, kind, decomp);
    return algorithm(kind).allReduceSchedule(bytes, group, *decomp,
                                             label);
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
