/**
 * @file
 * Collective-algorithm layer: the communication cost oracle AND the
 * pluggable algorithms Spindle's runtime schedules parameter sync
 * with (§3.6). Point-to-point flows use the classic alpha-beta
 * formulation [Hockney 94]; group collectives come in four flavours:
 *
 *  - FlatRing — the historical model: one ring over the whole group,
 *    bottlenecked by the slowest collective link class the group
 *    spans (ClusterTopology::groupLink). Bit-reproducible legacy
 *    behaviour; the default.
 *  - Hierarchical — topology-aware three-phase schedule over the
 *    group's island decomposition: ring reduce-scatter within each
 *    island over its intra link class, ring all-reduce across the
 *    per-island leaders over the bottleneck inter-island collective
 *    class, ring all-gather back within each island. Single-island
 *    groups degenerate *exactly* to the flat ring.
 *  - ShardedHierarchical — the rail-optimized variant: same intra
 *    phases, but the inter-island stage runs
 *    S = min(smallest island slice, bottleneck rails) concurrent
 *    rings — ring r over the r-th member of every island slice —
 *    each carrying bytes/S over its own rail. Degenerates bit-exactly
 *    to Hierarchical when S == 1 (rails == 1 fabrics) and to the
 *    flat ring on single-island groups.
 *  - Auto — per call, whichever of the three is cheapest (flat on
 *    ties; Hierarchical on a hierarchical/sharded tie).
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

#include <memory>
#include <string>
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

/** One simulator reservation of a collective schedule. */
struct CollectiveStep
{
    DeviceSet devices;  ///< devices the step occupies
    double seconds = 0; ///< analytic duration of the step
    std::string label;  ///< trace label ("param_sync", "..._rs", ...)
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
 * One pluggable collective algorithm: prices ring all-reduce /
 * all-gather over a decomposed device group and emits the phase
 * schedule the runtime executes. Stateless over a frozen topology.
 */
class CollectiveAlgorithm
{
  public:
    explicit CollectiveAlgorithm(const ClusterTopology &topo)
        : topo_(topo)
    {
    }
    virtual ~CollectiveAlgorithm() = default;

    virtual CollectiveKind kind() const = 0;

    /** All-reduce time of @p bytes over the decomposed group. */
    virtual double allReduce(double bytes, const DeviceSet &group,
                             const GroupDecomposition &decomp) const = 0;

    /** All-gather time of @p bytes over the decomposed group. */
    virtual double allGather(double bytes, const DeviceSet &group,
                             const GroupDecomposition &decomp) const = 0;

    /**
     * The all-reduce phase schedule the runtime executes; step
     * labels derive from @p label. Its seconds() equals allReduce().
     */
    virtual CollectiveSchedule
    allReduceSchedule(double bytes, const DeviceSet &group,
                      const GroupDecomposition &decomp,
                      const std::string &label) const = 0;

  protected:
    const ClusterTopology &topo_;
};

/**
 * Collective/communication cost oracle over a concrete topology,
 * dispatching to the selected CollectiveAlgorithm. The kind-less
 * overloads keep the historical flat-ring behaviour bit for bit.
 */
class CollectiveModel
{
  public:
    explicit CollectiveModel(const ClusterTopology &topo);
    ~CollectiveModel();

    CollectiveModel(const CollectiveModel &) = delete;
    CollectiveModel &operator=(const CollectiveModel &) = delete;

    /**
     * Ring all-reduce of @p bytes across @p group (flat ring).
     * t = 2 (g-1)/g * bytes / bw + 2 (g-1) * lat; 0 for g <= 1.
     */
    double allReduceTime(double bytes, const DeviceSet &group) const;

    /** Ring all-gather: t = (g-1)/g * bytes / bw + (g-1) * lat. */
    double allGatherTime(double bytes, const DeviceSet &group) const;

    /**
     * Algorithm-aware all-reduce. FlatRing reproduces the kind-less
     * overload bit for bit; Hierarchical degenerates to it on
     * single-island groups; ShardedHierarchical degenerates to
     * Hierarchical when its shard count is 1; Auto returns the
     * minimum of the three. Pass a cached @p decomp (e.g.
     * ParameterGroupPool's) to skip re-decomposing the group; it
     * must be the decomposition of @p group by this model's topology.
     */
    double allReduceTime(double bytes, const DeviceSet &group,
                         CollectiveKind kind,
                         const GroupDecomposition *decomp = nullptr) const;

    /** Algorithm-aware all-gather (same contract as allReduceTime). */
    double allGatherTime(double bytes, const DeviceSet &group,
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
     * Phase schedule of the selected algorithm's all-reduce (Auto:
     * of the per-call winner). seconds() equals allReduceTime() of
     * the resolved kind.
     */
    CollectiveSchedule
    allReduceSchedule(double bytes, const DeviceSet &group,
                      CollectiveKind kind, const std::string &label,
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

    /** Point-to-point transfer of @p bytes from @p src to @p dst. */
    double p2pTime(double bytes, DeviceId src, DeviceId dst) const;

    /**
     * Transfer @p bytes from source device set to destination set,
     * as the runtime's batched P2P does at wave boundaries. Free when
     * the sets are equal; otherwise priced over the best link class
     * any (src, dst) pair spans — highest bandwidth, ties broken
     * toward the lower latency — with the data sharded across
     * min(|src|,|dst|) parallel streams. The candidate classes are:
     * the on-device copy when the sets share a device, island i's
     * intra class when i holds a pair of distinct devices, and the
     * point-to-point class of every touched pair of distinct
     * islands. Since the winner depends only on which classes are
     * present, it is found from one pass over each set recording the
     * islands it touches in a per-island table: O(|src| + |dst| +
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

    /** The concrete algorithm for a non-Auto kind. */
    const CollectiveAlgorithm &algorithm(CollectiveKind kind) const;

    const ClusterTopology &topology() const { return topo_; }

  private:
    const ClusterTopology &topo_;
    std::unique_ptr<CollectiveAlgorithm> flat_;
    std::unique_ptr<CollectiveAlgorithm> hierarchical_;
    std::unique_ptr<CollectiveAlgorithm> sharded_;
};

} // namespace spindle

#endif // SPINDLE_HARDWARE_COLLECTIVE_H
