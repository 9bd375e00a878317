/**
 * @file
 * Cluster topology as an explicit island graph (paper §3.5).
 *
 * A device island is a set of devices connected by high-bandwidth
 * interconnects (NVLink within a node); islands talk over the slower
 * inter-node fabric (InfiniBand). Spindle's device placement is built
 * around this structure.
 *
 * Two ways to describe a cluster:
 *  - the homogeneous shorthand (`numNodes` x `gpusPerNode`): islands
 *    are equal-size contiguous id ranges, all links use the three
 *    default classes — the paper's testbed;
 *  - an explicit island graph (`ClusterConfig::islands`): islands of
 *    individual sizes whose device-id membership is arbitrary
 *    (non-contiguous, permuted), each optionally with its own
 *    intra-island link class, plus per-island-pair overrides of the
 *    point-to-point and collective inter-island classes
 *    (`ClusterConfig::islandLinks`).
 *
 * Either way, device ids must form the dense range [0, numDevices):
 * every per-device table in the planner and runtime (placement
 * state, peak-memory vectors, the simulator's device array) indexes
 * by id. Consumers never assume islands are contiguous id ranges —
 * they ask `islandOf` / `withinOneIsland` / `linkBetween` /
 * `islandDevices` instead.
 */

#ifndef SPINDLE_HARDWARE_TOPOLOGY_H
#define SPINDLE_HARDWARE_TOPOLOGY_H

#include "common/logging.h"
#include "hardware/device.h"

namespace spindle {

/**
 * One point-to-point link class: bandwidth plus per-message latency,
 * plus the number of independent physical rails behind the class.
 *
 * `rails` models rail-optimized fabrics (one HCA per intra-island
 * rank): each rail sustains `bandwidth` independently, so up to
 * `rails` concurrent rings can each run at the full class bandwidth.
 * Single-ring algorithms (flat ring, the hierarchical leader ring,
 * point-to-point flows) use one rail and are unaffected; only
 * CollectiveKind::ShardedHierarchical exploits rails > 1. Default 1
 * keeps every pre-rails fabric bit-identical; 0 is rejected at
 * topology construction.
 */
struct LinkParams
{
    double bandwidth = 0;     ///< bytes per second, per rail
    double latency = 0;       ///< seconds per message
    std::uint32_t rails = 1;  ///< independent physical rails (>= 1)
};

/**
 * One explicit device island: its member device ids (arbitrary —
 * non-contiguous and permuted memberships are fine) and an optional
 * intra-island link override. A bandwidth of 0 inherits
 * ClusterConfig::intraIsland's bandwidth (latency-only overrides
 * are allowed); a link with zero bandwidth, zero latency and the
 * default rail count inherits the class wholesale.
 */
struct IslandSpec
{
    DeviceSet devices;
    LinkParams intra{0, 0};
};

/**
 * Link-class override for one island pair. Unordered: (a, b) also
 * covers (b, a). A bandwidth of 0 inherits the corresponding
 * ClusterConfig default class's bandwidth (latency/rails-only
 * overrides are allowed); a link with zero bandwidth, zero latency
 * and the default rail count inherits that class wholesale.
 */
struct IslandLinkSpec
{
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    LinkParams p2p{0, 0};        ///< point-to-point transfers
    LinkParams collective{0, 0}; ///< rail-aggregated collectives
};

/** Static description of a GPU cluster (see file comment). */
struct ClusterConfig
{
    /** Homogeneous shorthand, used when `islands` is empty. */
    std::uint32_t numNodes = 1;
    std::uint32_t gpusPerNode = 8;
    DeviceSpec device;

    /** NVLink class (A800: ~200 GB/s effective per direction). */
    LinkParams intraIsland{200 * kGiga, 3 * kMicro};

    /**
     * Inter-node point-to-point transfer: one 400 Gb/s InfiniBand
     * rail ~= 50 GB/s.
     */
    LinkParams interIsland{50 * kGiga, 10 * kMicro};

    /**
     * Inter-node *collectives*: rail-optimized rings use one HCA per
     * GPU, aggregating to ~400 GB/s per node pair. The default keeps
     * the aggregate folded into a single bandwidth figure with
     * rails = 1 (bit-identical to the pre-rails model); fabrics that
     * instead expose per-rail bandwidth set `rails` to the HCA count
     * so ShardedHierarchical can run that many concurrent rings.
     */
    LinkParams interIslandCollective{400 * kGiga, 10 * kMicro};

    /**
     * Explicit island graph. When non-empty it defines the cluster
     * and the homogeneous shorthand above is ignored; the union of
     * all island device ids must be exactly [0, total).
     */
    std::vector<IslandSpec> islands;

    /** Per-island-pair link overrides (explicit graph or shorthand). */
    std::vector<IslandLinkSpec> islandLinks;
};

/**
 * A degraded cluster derived by ClusterTopology::withoutDevices():
 * the surviving island graph (dead devices removed, emptied islands
 * dropped, link overrides remapped) plus the id maps between the
 * original and the surviving — dense, renumbered — device id spaces.
 *
 * `config` constructs a valid ClusterTopology whose fingerprint()
 * identifies the surviving *shape*: two failure episodes that leave
 * the same surviving island graph hash equal (so a PlanCache re-hits
 * when a degraded state recurs), while any difference in the
 * surviving set hashes apart.
 */
struct DegradedTopology
{
    /** Marker for a dead device in oldToNew. */
    static constexpr DeviceId kDead = ~DeviceId{0};

    /** Surviving cluster as an explicit island graph, ids dense. */
    ClusterConfig config;

    /** Surviving-space id -> original id (ascending originals). */
    std::vector<DeviceId> newToOld;

    /** Original id -> surviving-space id, kDead for dead devices. */
    std::vector<DeviceId> oldToNew;

    /** Original island indices that lost every member device. */
    std::vector<std::uint32_t> droppedIslands;
};

/**
 * Frozen cluster topology: the island graph the planner queries.
 * Validated exhaustively at construction (empty islands, duplicate
 * or non-dense device ids, non-positive bandwidths and malformed
 * overrides all fatal() with a pointed message) so downstream layers
 * can index and divide without re-checking.
 */
class ClusterTopology
{
  public:
    explicit ClusterTopology(ClusterConfig config);

    std::uint32_t numDevices() const { return num_devices_; }
    std::uint32_t numIslands() const
    {
        return static_cast<std::uint32_t>(islands_.size());
    }
    const DeviceSpec &device() const { return config_.device; }
    const ClusterConfig &config() const { return config_; }

    /**
     * Island index owning device @p dev. Inline: placement scoring
     * and flow pricing call it tens of millions of times, so the
     * hot path is one bounds test and one table load (panicIf builds
     * its message only when the test fails).
     */
    std::uint32_t islandOf(DeviceId dev) const
    {
        panicIf(dev >= num_devices_, "islandOf: bad device ", dev);
        return island_of_[dev];
    }

    /** True iff both devices sit in the same island. */
    bool sameIsland(DeviceId a, DeviceId b) const;

    /** True iff all devices of the (non-empty) set share one island. */
    bool withinOneIsland(const DeviceSet &devices) const;

    /** Device ids of island @p island, ascending. */
    const DeviceSet &islandDevices(std::uint32_t island) const;

    /** Number of devices in island @p island. */
    std::uint32_t islandSizeOf(std::uint32_t island) const;

    /** Largest island size (bounds intra-island TP groups). */
    std::uint32_t maxIslandSize() const { return max_island_size_; }

    /** Smallest island size. */
    std::uint32_t minIslandSize() const { return min_island_size_; }

    /** All device ids of the cluster, ascending. */
    DeviceSet allDevices() const;

    /** Intra-island link class of island @p island. */
    const LinkParams &intraLink(std::uint32_t island) const;

    /** Point-to-point link class between two distinct islands. */
    const LinkParams &interLink(std::uint32_t a, std::uint32_t b) const;

    /** Collective link class between two distinct islands. */
    const LinkParams &collectiveLink(std::uint32_t a,
                                     std::uint32_t b) const;

    /**
     * True iff every island uses the default intra class and no
     * island-pair override is configured — i.e. the three default
     * link classes describe the whole fabric. The collectives read
     * it to skip the per-pair ring-bottleneck scan;
     * point-to-point flow pricing (FlowSource) needs no such flag.
     */
    bool uniformLinks() const { return uniform_links_; }

    /**
     * Link class between two devices: same device -> on-device copy,
     * same island -> that island's intra class, otherwise the island
     * pair's point-to-point class.
     */
    LinkParams linkBetween(DeviceId a, DeviceId b) const;

    /**
     * 64-bit structural fingerprint of the *resolved* topology:
     * device spec, per-island device memberships, resolved intra
     * classes, the three default link classes (placement's penalty
     * terms read them directly; bandwidth, latency and rail count
     * alike), and the resolved island-pair overrides. Two
     * topologies with equal fingerprints answer every planner query
     * identically, so the fingerprint keys cached planning results
     * (planner/plan_cache.h). Shorthand and explicit-island configs
     * that resolve to the same island graph hash equal.
     */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Derive the surviving topology after the devices of @p dead
     * fail (failure recovery / elastic shrink): dead devices are
     * removed from their islands, islands left empty are dropped
     * (their island-pair link overrides with them — a warn(), not an
     * error), surviving islands keep their resolved intra link
     * classes, and overrides between two surviving islands are
     * remapped onto the new island indices. Surviving device ids are
     * renumbered dense in ascending original-id order; the returned
     * maps translate between the two id spaces.
     *
     * User errors are fatal() with actionable messages: an empty
     * dead set, a dead id out of range, a duplicate dead id, and a
     * dead set that kills the whole cluster (nothing to replan on —
     * the caller must surface total loss, not plan around it).
     */
    DegradedTopology withoutDevices(const DeviceSet &dead) const;

  private:
    void validateAndBuild();

    ClusterConfig config_;
    std::uint32_t num_devices_ = 0;
    std::uint64_t fingerprint_ = 0;
    std::uint32_t max_island_size_ = 0;
    std::uint32_t min_island_size_ = 0;
    bool uniform_links_ = true;

    /** Member ids per island, ascending. */
    std::vector<DeviceSet> islands_;

    /** Dense device id -> island index lookup. */
    std::vector<std::uint32_t> island_of_;

    /** Resolved intra class per island (defaults applied). */
    std::vector<LinkParams> intra_links_;

    /** Resolved pair overrides, keyed (min(a,b) * numIslands + max). */
    struct PairLinks
    {
        std::uint64_t key = 0;
        LinkParams p2p;
        LinkParams collective;
    };
    std::vector<PairLinks> pair_links_; ///< sorted by key
    const PairLinks *findPair(std::uint32_t a, std::uint32_t b) const;
};

} // namespace spindle

#endif // SPINDLE_HARDWARE_TOPOLOGY_H
