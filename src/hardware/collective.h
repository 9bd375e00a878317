/**
 * @file
 * Collective-algorithm layer: the communication cost oracle AND the
 * all-reduce algorithms Spindle's runtime schedules parameter sync
 * with (§3.6). Point-to-point flows use the classic alpha-beta
 * formulation [Hockney 94]; group all-reduce comes in four kinds,
 * selected per call by CollectiveKind and priced by one routine:
 *
 *  - FlatRing — the historical model: one ring over the whole group.
 *    A single-island group rides its island's intra class; a group
 *    spanning islands rides the bottleneck inter-island collective
 *    class (the lowest-bandwidth class among the island pairs it
 *    spans). Bit-reproducible legacy behaviour; the default.
 *  - Hierarchical — topology-aware three-phase schedule over the
 *    group's island decomposition: ring reduce-scatter within each
 *    island over its intra link class, ring all-reduce across the
 *    per-island leaders over the same bottleneck class, ring
 *    all-gather back within each island.
 *  - ShardedHierarchical — the rail-optimized variant: same intra
 *    phases, but the inter-island stage runs
 *    S = min(smallest island slice, bottleneck rails) concurrent
 *    rings — ring r over the r-th member of every island slice —
 *    each carrying bytes/S over its own rail. Hierarchical is the
 *    S == 1 case (ring 0 is the leader set).
 *  - Auto — per call, whichever of the three is cheapest (flat on
 *    ties; Hierarchical on a hierarchical/sharded tie).
 *
 * Every kind degenerates *exactly* to the flat ring on single-island
 * groups.
 *
 * Island decomposition (decomposeByIsland) handles arbitrary
 * DeviceSets: partial-island membership, permuted / non-contiguous
 * device ids, singleton islands. The leader of each island group is
 * its lowest member id.
 *
 * The same oracle prices collectives everywhere: SyncExecutor
 * schedules the phase structure on the simulator, the planner's
 * placement scoring and HardwareModel's Megatron-TP charge use the
 * ring formulas below, and the estimator inherits them through the
 * hardware oracle — so planning and runtime never disagree on what a
 * collective costs.
 */

#ifndef SPINDLE_HARDWARE_COLLECTIVE_H
#define SPINDLE_HARDWARE_COLLECTIVE_H

#include <algorithm>
#include <vector>

#include "hardware/topology.h"

namespace spindle {

/** Which collective algorithm a consumer selects. */
enum class CollectiveKind : std::uint8_t
{
    FlatRing,     ///< one ring over the whole group (legacy default)
    Hierarchical, ///< intra-island reduce-scatter / leader ring / all-gather
    Auto,         ///< per call, the cheapest algorithm (flat on ties)
    ShardedHierarchical, ///< hierarchical with concurrent per-rail inter rings
};

/** Human-readable algorithm name ("FlatRing", ...). */
const char *collectiveKindName(CollectiveKind kind);

/**
 * Bucketed gradient all-reduce overlapped with backward compute (as
 * PyTorch DDP / Megatron do): the share of the backward span that can
 * hide parameter sync, and the floor on the exposed sync cost as a
 * share of the collective time (the unoverlappable tail).
 * SyncExecutor charges them (runtime/sync_executor.h); they sit beside
 * the collective oracle so that planner-side sync pricing can read the
 * same values.
 */
inline constexpr double kSyncOverlapFraction = 0.5;
inline constexpr double kMinSyncFraction = 0.25;

/** One island's slice of a device group. */
struct IslandGroup
{
    std::uint32_t island = 0; ///< island index in the topology
    DeviceSet devices;        ///< group members in this island, ascending
    DeviceId leader = 0;      ///< elected leader: the lowest member id

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(devices.size());
    }
};

/**
 * Topology-driven island decomposition of a device group: which
 * islands the group touches (ascending island index), the members it
 * has in each, and the elected per-island leaders.
 */
struct GroupDecomposition
{
    std::vector<IslandGroup> islands; ///< ascending island index
    DeviceSet leaders;                ///< leader ids, ascending

    bool spansIslands() const { return islands.size() > 1; }
    std::uint32_t numIslands() const
    {
        return static_cast<std::uint32_t>(islands.size());
    }

    /**
     * Size of the smallest island slice: the cap on how many
     * concurrent inter-island rings ShardedHierarchical can form
     * (ring r needs the r-th member of *every* slice). Cached here
     * so ParameterGroupPool's per-group decomposition carries it.
     */
    std::uint32_t minSliceSize() const
    {
        std::uint32_t m = 0;
        for (const IslandGroup &g : islands)
            m = (m == 0 || g.size() < m) ? g.size() : m;
        return m;
    }
};

/** Decompose @p group by the islands of @p topo (see file comment). */
GroupDecomposition decomposeByIsland(const ClusterTopology &topo,
                                     const DeviceSet &group);

/**
 * One simulator reservation of a collective schedule. The label is
 * the static trace literal of the step's phase: "param_sync" for the
 * flat ring, "param_sync_rs" / "param_sync_xr" / "param_sync_ag" for
 * the intra reduce-scatter, inter-island ring(s) and intra all-gather.
 */
struct CollectiveStep
{
    DeviceSet devices;      ///< devices the step occupies
    double seconds = 0;     ///< analytic duration of the step
    const char *label = ""; ///< phase literal (see above)
};

/**
 * Phase structure of one collective: stages run in sequence (stage
 * s+1 starts when every step of stage s finished); steps within one
 * stage touch disjoint devices and therefore overlap. The flat ring
 * is one stage of one step; the hierarchical schedule is
 * [intra reduce-scatter steps] -> [leader ring] -> [intra all-gather
 * steps], so only the leader stage occupies devices across islands.
 */
struct CollectiveSchedule
{
    std::vector<std::vector<CollectiveStep>> stages;

    /** Analytic total: sum over stages of the slowest step. */
    double seconds() const;
};

/**
 * Per-source flow resolver: the one place a point-to-point flow's
 * link is chosen, for the runtime (CollectiveModel::flowTime) and for
 * placement scoring alike. It records the source set's devices per
 * island; a destination device then resolves, from its (island,
 * in-source) pair alone, to the best (better()) of: the on-device
 * copy if it is a source device, its island's intra class if another
 * source device shares the island, and the point-to-point class from
 * every other island the source touches. link() memoizes per island
 * on fabrics with pair overrides: one resolver, one thread.
 */
class FlowSource
{
  public:
    /** @p src: distinct device ids, in any order. */
    FlowSource(const ClusterTopology &topo, const DeviceSet &src);

    /** Number of source devices in island @p island. */
    std::uint32_t countIn(std::uint32_t i) const { return count_[i]; }

    /**
     * Best link into a destination device of island @p island that
     * is (@p in_source) or is not a source device itself. A source
     * device must lie in @p island when @p in_source is set.
     */
    LinkParams link(std::uint32_t island, bool in_source)
    {
        LinkParams best{0.0, 0.0};
        auto consider = [&best](const LinkParams &l) {
            if (better(l, best))
                best = l;
        };
        if (in_source)
            consider({topo_->device().copyBandwidth, 0.0});
        if (count_[island] > (in_source ? 1u : 0u))
            consider(topo_->intraLink(island));
        if (count_[island] < size_)
            consider(default_inter_ != nullptr ? *default_inter_
                                               : bestInter(island));
        return best;
    }

    /** Seconds to move @p bytes over @p link into @p dst_size
     *  devices, sharded across min(|src|, dst_size) streams. */
    double seconds(double bytes, std::size_t dst_size,
                   const LinkParams &link) const
    {
        const double streams =
            static_cast<double>(std::min<std::size_t>(size_, dst_size));
        return bytes / streams / link.bandwidth + link.latency;
    }

    /** The selection order: @p a beats @p b on higher bandwidth, or
     *  on equal bandwidth and lower latency. */
    static bool better(const LinkParams &a, const LinkParams &b)
    {
        return a.bandwidth > b.bandwidth ||
               (a.bandwidth == b.bandwidth && a.latency < b.latency);
    }

  private:
    /** Best point-to-point class from another source island into
     *  @p island, on fabrics with island-pair overrides. */
    const LinkParams &bestInter(std::uint32_t island);

    const ClusterTopology *topo_;
    /** The one point-to-point class every island pair uses when no
     *  pair override is configured; nullptr otherwise. */
    const LinkParams *default_inter_ = nullptr;
    std::uint32_t size_ = 0;
    std::vector<std::uint32_t> count_; ///< source devices per island
    /** bestInter() memo: islands the source touches, and per island
     *  the best class into it (nullptr = not yet resolved). */
    std::vector<std::uint32_t> islands_;
    std::vector<const LinkParams *> inter_;
};

/**
 * Collective/communication cost oracle over a concrete topology. The
 * CollectiveKind selects the all-reduce algorithm per call; one
 * routine prices every kind and emits its phase schedule.
 */
class CollectiveModel
{
  public:
    explicit CollectiveModel(const ClusterTopology &topo);

    CollectiveModel(const CollectiveModel &) = delete;
    CollectiveModel &operator=(const CollectiveModel &) = delete;

    /**
     * Ring all-reduce of @p bytes across @p group under @p kind
     * (Auto: the per-call winner of resolveAuto). Every kind
     * degenerates to one ring over the group on single-island
     * groups; ShardedHierarchical degenerates to Hierarchical when
     * its shard count is 1. 0 for groups of at most one device.
     * Pass a cached @p decomp (e.g. ParameterGroupPool's) to skip
     * re-decomposing the group; it must be the decomposition of
     * @p group by this model's topology.
     */
    double allReduceTime(double bytes, const DeviceSet &group,
                         CollectiveKind kind,
                         const GroupDecomposition *decomp = nullptr) const;

    /**
     * The algorithm Auto resolves to for this call:
     * ShardedHierarchical when strictly cheaper than both others,
     * else Hierarchical when strictly cheaper than the flat ring,
     * FlatRing otherwise (ties included — and a hierarchical/sharded
     * tie, always the case on rails == 1 fabrics, resolves to
     * Hierarchical). Non-Auto kinds resolve to themselves.
     */
    CollectiveKind
    resolveAuto(double bytes, const DeviceSet &group, CollectiveKind kind,
                const GroupDecomposition *decomp = nullptr) const;

    /**
     * Phase schedule of the selected algorithm's gradient all-reduce
     * (Auto: of the per-call winner), each step labelled with its
     * phase (CollectiveStep). seconds() equals allReduceTime() of
     * the same call.
     */
    CollectiveSchedule
    allReduceSchedule(double bytes, const DeviceSet &group,
                      CollectiveKind kind,
                      const GroupDecomposition *decomp = nullptr) const;

    /** Island decomposition of @p group (decomposeByIsland). */
    GroupDecomposition decompose(const DeviceSet &group) const;

    /**
     * Megatron-style TP all-reduce of @p bytes across a @p tp -wide
     * group. TP groups stay within one island (placement enforces
     * the preference), where every algorithm degenerates to the same
     * intra-island ring — so this price is algorithm-invariant and
     * the planner/estimator and the runtime use one oracle.
     */
    double tpAllReduceTime(double bytes, std::uint32_t tp) const;

    /**
     * Transfer @p bytes from source device set to destination set,
     * as the runtime's batched P2P does at wave boundaries. Free when
     * the bytes are not positive or the sets are equal; otherwise the
     * best over @p dst of each device's FlowSource link — the best
     * link class any (src, dst) pair spans — with the data sharded
     * across min(|src|,|dst|) parallel streams. O(|src| + |dst| +
     * numIslands + islands(src) * islands(dst)), bit-identical to
     * scanning all |src| * |dst| pairs with linkBetween
     * (collective_test pins this). Sets may be unsorted.
     */
    double flowTime(double bytes, const DeviceSet &src,
                    const DeviceSet &dst) const;

    /** Stateless ring all-reduce over an explicit link class. */
    static double ringAllReduce(double bytes, std::uint32_t group_size,
                                const LinkParams &link);

    /** Stateless ring all-gather over an explicit link class. */
    static double ringAllGather(double bytes, std::uint32_t group_size,
                                const LinkParams &link);

    /** Stateless ring reduce-scatter (same alpha-beta shape as the
     *  all-gather: each rank ends with 1/g of the reduced vector). */
    static double ringReduceScatter(double bytes, std::uint32_t group_size,
                                    const LinkParams &link);

    const ClusterTopology &topology() const { return topo_; }

  private:
    /**
     * The one all-reduce routine: the price of a resolved (non-Auto)
     * @p kind over a group of at least two devices, appending the
     * phase-labelled schedule to @p sched when it is given.
     */
    double allReduce(double bytes, const DeviceSet &group,
                     const GroupDecomposition &decomp, CollectiveKind kind,
                     CollectiveSchedule *sched = nullptr) const;

    const ClusterTopology &topo_;
};

} // namespace spindle

#endif // SPINDLE_HARDWARE_COLLECTIVE_H
