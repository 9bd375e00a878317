#include "hardware/topology.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/logging.h"

namespace spindle {

namespace {

/** Reject non-positive bandwidths / negative latencies / zero rails. */
void
checkLink(const LinkParams &link, const char *what)
{
    fatalIf(link.bandwidth <= 0,
            "ClusterTopology: ", what, " bandwidth must be positive (got ",
            link.bandwidth, ")");
    fatalIf(link.latency < 0,
            "ClusterTopology: ", what, " latency must be >= 0");
    fatalIf(link.rails == 0,
            "ClusterTopology: ", what,
            " rails must be >= 1 (got 0; default-construct for 1)");
}

/**
 * Resolve an override against its default class: bandwidth 0
 * inherits the default's bandwidth (so a latency-only or rails-only
 * override is expressible); with latency also 0 the default's
 * latency is inherited too, and a rail count of 1 there means
 * "unspecified" and inherits the default's rails (so an all-default
 * link inherits the class wholesale). Negative values / zero rails
 * are rejected.
 */
LinkParams
resolveLink(const LinkParams &link, const LinkParams &fallback,
            const char *what)
{
    fatalIf(link.bandwidth < 0,
            "ClusterTopology: ", what,
            " bandwidth must be >= 0 (0 inherits the default)");
    fatalIf(link.latency < 0,
            "ClusterTopology: ", what, " latency must be >= 0");
    fatalIf(link.rails == 0,
            "ClusterTopology: ", what,
            " rails must be >= 1 (got 0; default-construct for 1)");
    if (link.bandwidth == 0 && link.latency == 0)
        return {fallback.bandwidth, fallback.latency,
                link.rails == 1 ? fallback.rails : link.rails};
    if (link.bandwidth == 0)
        return {fallback.bandwidth, link.latency, link.rails};
    return link;
}

/** Order-sensitive 64-bit hash combiner (FNV-1a over words). */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

std::uint64_t
mix(std::uint64_t h, double v)
{
    return mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
mix(std::uint64_t h, const LinkParams &link)
{
    h = mix(mix(h, link.bandwidth), link.latency);
    return mix(h, static_cast<std::uint64_t>(link.rails));
}

} // namespace

ClusterTopology::ClusterTopology(ClusterConfig config)
    : config_(std::move(config))
{
    validateAndBuild();
}

void
ClusterTopology::validateAndBuild()
{
    checkLink(config_.intraIsland, "intraIsland");
    checkLink(config_.interIsland, "interIsland");
    checkLink(config_.interIslandCollective, "interIslandCollective");
    fatalIf(config_.device.copyBandwidth <= 0,
            "ClusterTopology: device copyBandwidth must be positive");
    fatalIf(config_.device.memoryBytes <= 0,
            "ClusterTopology: device memoryBytes must be positive");

    if (config_.islands.empty()) {
        // Homogeneous shorthand: contiguous equal-size islands.
        fatalIf(config_.numNodes == 0 || config_.gpusPerNode == 0,
                "ClusterTopology: empty cluster");
        num_devices_ = config_.numNodes * config_.gpusPerNode;
        islands_.resize(config_.numNodes);
        for (std::uint32_t k = 0; k < config_.numNodes; ++k) {
            islands_[k].resize(config_.gpusPerNode);
            std::iota(islands_[k].begin(), islands_[k].end(),
                      k * config_.gpusPerNode);
        }
    } else {
        std::size_t total = 0;
        for (const IslandSpec &spec : config_.islands) {
            fatalIf(spec.devices.empty(),
                    "ClusterTopology: island ", islands_.size(),
                    " has no devices");
            total += spec.devices.size();
            DeviceSet members = spec.devices;
            canonicalize(members);
            fatalIf(members.size() != spec.devices.size(),
                    "ClusterTopology: island ", islands_.size(),
                    " lists a device id twice");
            islands_.push_back(std::move(members));
        }
        num_devices_ = static_cast<std::uint32_t>(total);
    }

    // Dense membership map; doubles as the duplicate / coverage check
    // across islands (ids must be exactly [0, numDevices)).
    island_of_.assign(num_devices_, num_devices_);
    for (std::size_t k = 0; k < islands_.size(); ++k) {
        for (DeviceId d : islands_[k]) {
            fatalIf(d >= num_devices_,
                    "ClusterTopology: device id ", d,
                    " out of range [0, ", num_devices_,
                    ") — ids must be dense");
            fatalIf(island_of_[d] != num_devices_,
                    "ClusterTopology: device id ", d,
                    " belongs to islands ", island_of_[d],
                    " and ", k);
            island_of_[d] = static_cast<std::uint32_t>(k);
        }
    }
    // Sizes summed to num_devices_ and no id appeared twice, so every
    // id in [0, num_devices_) is covered; no separate scan needed.

    max_island_size_ = 0;
    min_island_size_ = num_devices_;
    for (const DeviceSet &island : islands_) {
        const auto size = static_cast<std::uint32_t>(island.size());
        max_island_size_ = std::max(max_island_size_, size);
        min_island_size_ = std::min(min_island_size_, size);
    }

    // Resolve per-island intra classes (0-bandwidth inherits).
    intra_links_.reserve(islands_.size());
    uniform_links_ = true;
    for (std::size_t k = 0; k < config_.islands.size(); ++k) {
        const LinkParams &ovr = config_.islands[k].intra;
        intra_links_.push_back(resolveLink(ovr, config_.intraIsland,
                                           "island intra"));
        if (ovr.bandwidth != 0 || ovr.latency != 0)
            uniform_links_ = false;
    }
    intra_links_.resize(islands_.size(), config_.intraIsland);

    // Resolve island-pair overrides.
    for (const IslandLinkSpec &spec : config_.islandLinks) {
        fatalIf(spec.a >= numIslands() || spec.b >= numIslands(),
                "ClusterTopology: islandLinks names island ",
                std::max(spec.a, spec.b), " but there are only ",
                numIslands());
        fatalIf(spec.a == spec.b,
                "ClusterTopology: islandLinks pair (", spec.a,
                ", ", spec.b,
                ") is not a pair; use IslandSpec::intra");
        PairLinks pair;
        const std::uint64_t lo = std::min(spec.a, spec.b);
        const std::uint64_t hi = std::max(spec.a, spec.b);
        pair.key = lo * numIslands() + hi;
        pair.p2p = resolveLink(spec.p2p, config_.interIsland,
                               "islandLinks p2p");
        pair.collective = resolveLink(spec.collective,
                                      config_.interIslandCollective,
                                      "islandLinks collective");
        for (const PairLinks &existing : pair_links_)
            fatalIf(existing.key == pair.key,
                    "ClusterTopology: duplicate islandLinks "
                    "entry for pair (",
                    lo, ", ", hi, ")");
        pair_links_.push_back(pair);
        uniform_links_ = false;
    }
    std::sort(pair_links_.begin(), pair_links_.end(),
              [](const PairLinks &x, const PairLinks &y) {
                  return x.key < y.key;
              });

    // Fingerprint the *resolved* state, never the raw config: the
    // shorthand and an explicit island list that denote the same
    // cluster must hash equal, and 0-bandwidth inherit markers must
    // not leak through. Every ingredient a planner query can read is
    // covered: device spec, memberships, resolved links, and the
    // three config defaults (placement's class tables and the
    // uniform-fabric fast path read those directly).
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = mix(h, static_cast<std::uint64_t>(num_devices_));
    h = mix(h, config_.device.peakFlops);
    h = mix(h, config_.device.memoryBytes);
    h = mix(h, config_.device.copyBandwidth);
    h = mix(h, config_.intraIsland);
    h = mix(h, config_.interIsland);
    h = mix(h, config_.interIslandCollective);
    h = mix(h, static_cast<std::uint64_t>(islands_.size()));
    for (std::size_t k = 0; k < islands_.size(); ++k) {
        h = mix(h, static_cast<std::uint64_t>(islands_[k].size()));
        for (DeviceId d : islands_[k])
            h = mix(h, static_cast<std::uint64_t>(d));
        h = mix(h, intra_links_[k]);
    }
    h = mix(h, static_cast<std::uint64_t>(pair_links_.size()));
    for (const PairLinks &pair : pair_links_) {
        h = mix(h, pair.key);
        h = mix(h, pair.p2p);
        h = mix(h, pair.collective);
    }
    fingerprint_ = h;
}

bool
ClusterTopology::sameIsland(DeviceId a, DeviceId b) const
{
    return islandOf(a) == islandOf(b);
}

bool
ClusterTopology::withinOneIsland(const DeviceSet &devices) const
{
    panicIf(devices.empty(), "withinOneIsland: empty set");
    std::uint32_t island = islandOf(devices.front());
    for (DeviceId d : devices)
        if (islandOf(d) != island)
            return false;
    return true;
}

const DeviceSet &
ClusterTopology::islandDevices(std::uint32_t island) const
{
    panicIf(island >= numIslands(), "islandDevices: bad ", island);
    return islands_[island];
}

std::uint32_t
ClusterTopology::islandSizeOf(std::uint32_t island) const
{
    panicIf(island >= numIslands(), "islandSizeOf: bad ", island);
    return static_cast<std::uint32_t>(islands_[island].size());
}

DeviceSet
ClusterTopology::allDevices() const
{
    DeviceSet out(num_devices_);
    std::iota(out.begin(), out.end(), 0u);
    return out;
}

const LinkParams &
ClusterTopology::intraLink(std::uint32_t island) const
{
    panicIf(island >= numIslands(), "intraLink: bad ", island);
    return intra_links_[island];
}

const ClusterTopology::PairLinks *
ClusterTopology::findPair(std::uint32_t a, std::uint32_t b) const
{
    if (pair_links_.empty())
        return nullptr;
    const std::uint64_t lo = std::min(a, b);
    const std::uint64_t hi = std::max(a, b);
    const std::uint64_t key = lo * numIslands() + hi;
    auto it = std::lower_bound(
        pair_links_.begin(), pair_links_.end(), key,
        [](const PairLinks &p, std::uint64_t k) { return p.key < k; });
    if (it != pair_links_.end() && it->key == key)
        return &*it;
    return nullptr;
}

const LinkParams &
ClusterTopology::interLink(std::uint32_t a, std::uint32_t b) const
{
    panicIf(a >= numIslands() || b >= numIslands() || a == b,
            "interLink: bad island pair (", a, ", ", b, ")");
    if (const PairLinks *pair = findPair(a, b))
        return pair->p2p;
    return config_.interIsland;
}

const LinkParams &
ClusterTopology::collectiveLink(std::uint32_t a, std::uint32_t b) const
{
    panicIf(a >= numIslands() || b >= numIslands() || a == b,
            "collectiveLink: bad island pair (", a, ", ", b, ")");
    if (const PairLinks *pair = findPair(a, b))
        return pair->collective;
    return config_.interIslandCollective;
}

LinkParams
ClusterTopology::linkBetween(DeviceId a, DeviceId b) const
{
    if (a == b)
        return {config_.device.copyBandwidth, 0.0};
    const std::uint32_t ia = islandOf(a);
    const std::uint32_t ib = islandOf(b);
    if (ia == ib)
        return intra_links_[ia];
    if (const PairLinks *pair = findPair(ia, ib))
        return pair->p2p;
    return config_.interIsland;
}

DegradedTopology
ClusterTopology::withoutDevices(const DeviceSet &dead) const
{
    fatalIf(dead.empty(),
            "withoutDevices: empty dead set — nothing failed, keep "
            "using this topology");
    std::vector<bool> is_dead(num_devices_, false);
    for (DeviceId d : dead) {
        fatalIf(d >= num_devices_,
                "withoutDevices: dead device id ", d,
                " out of range [0, ", num_devices_,
                ") — ids are in the original numbering");
        fatalIf(is_dead[d],
                "withoutDevices: device ", d,
                " listed dead twice");
        is_dead[d] = true;
    }
    fatalIf(dead.size() == num_devices_,
            "withoutDevices: all ", num_devices_,
            " devices are dead — no surviving topology to "
            "replan on; report total cluster loss instead");

    DegradedTopology out;
    out.oldToNew.assign(num_devices_, DegradedTopology::kDead);
    out.newToOld.reserve(num_devices_ - dead.size());
    for (DeviceId d = 0; d < num_devices_; ++d) {
        if (is_dead[d])
            continue;
        out.oldToNew[d] = static_cast<DeviceId>(out.newToOld.size());
        out.newToOld.push_back(d);
    }

    // Surviving islands, in original island order, with membership
    // mapped into the renumbered space. The resolved intra class is
    // re-emitted as an explicit override only where the original
    // config overrode it, so a uniform fabric stays uniform (the
    // placement fast path keys on uniformLinks()).
    out.config.device = config_.device;
    out.config.intraIsland = config_.intraIsland;
    out.config.interIsland = config_.interIsland;
    out.config.interIslandCollective = config_.interIslandCollective;
    std::vector<std::uint32_t> island_remap(islands_.size(),
                                            ~std::uint32_t{0});
    for (std::size_t k = 0; k < islands_.size(); ++k) {
        IslandSpec spec;
        for (DeviceId d : islands_[k])
            if (!is_dead[d])
                spec.devices.push_back(out.oldToNew[d]);
        if (spec.devices.empty()) {
            out.droppedIslands.push_back(static_cast<std::uint32_t>(k));
            continue;
        }
        const bool overridden =
            k < config_.islands.size() &&
            (config_.islands[k].intra.bandwidth != 0 ||
             config_.islands[k].intra.latency != 0 ||
             config_.islands[k].intra.rails != 1);
        if (overridden)
            spec.intra = intra_links_[k];
        island_remap[k] =
            static_cast<std::uint32_t>(out.config.islands.size());
        out.config.islands.push_back(std::move(spec));
    }

    // Island-pair link overrides: remapped where both islands
    // survive, dropped (with a warning — the fabric they priced no
    // longer exists) where either end emptied.
    for (const PairLinks &pair : pair_links_) {
        const auto a = static_cast<std::uint32_t>(pair.key / numIslands());
        const auto b = static_cast<std::uint32_t>(pair.key % numIslands());
        if (island_remap[a] == ~std::uint32_t{0} ||
            island_remap[b] == ~std::uint32_t{0}) {
            warn(strCat("withoutDevices: dropping link override for "
                        "island pair (", a, ", ", b, ") — island ",
                        island_remap[a] == ~std::uint32_t{0} ? a : b,
                        " lost all its devices"));
            continue;
        }
        IslandLinkSpec spec;
        spec.a = island_remap[a];
        spec.b = island_remap[b];
        spec.p2p = pair.p2p;
        spec.collective = pair.collective;
        out.config.islandLinks.push_back(spec);
    }
    return out;
}

LinkParams
ClusterTopology::groupLink(const DeviceSet &devices) const
{
    panicIf(devices.empty(), "groupLink: empty group");
    if (devices.size() == 1)
        return {config_.device.copyBandwidth, 0.0};
    const std::uint32_t first = islandOf(devices.front());
    bool spans = false;
    for (DeviceId d : devices) {
        if (islandOf(d) != first) {
            spans = true;
            break;
        }
    }
    if (!spans)
        return intra_links_[first];
    if (uniform_links_)
        return config_.interIslandCollective;

    // Ring bottleneck: the lowest-bandwidth collective class among
    // the island pairs the group spans.
    std::vector<std::uint32_t> seen;
    for (DeviceId d : devices) {
        const std::uint32_t island = islandOf(d);
        if (std::find(seen.begin(), seen.end(), island) == seen.end())
            seen.push_back(island);
    }
    const LinkParams *worst = nullptr;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        for (std::size_t j = i + 1; j < seen.size(); ++j) {
            const LinkParams &link = collectiveLink(seen[i], seen[j]);
            if (worst == nullptr || link.bandwidth < worst->bandwidth)
                worst = &link;
        }
    }
    return *worst;
}

} // namespace spindle
