#include "planner/placement.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace spindle {

namespace {

/**
 * Parameter signature of one member operator of a slice: the dedup
 * key plus the per-device share and raw bytes the scoring loops
 * consume. Computed once per wave entry instead of re-deriving the
 * OperatorDesc and share inside every candidate window.
 */
struct SliceParam
{
    std::int64_t key = 0;
    double share = 0; ///< per-device param + optimizer share
    double bytes = 0; ///< raw parameter bytes (affinity scoring)
};

/** Smallest window-sweep chunk (the pruning unit). */
constexpr std::size_t kMinSweepChunk = 128;

/**
 * Entry-wide per-inflow scoring context. A device's link under the
 * flow's FlowSource depends only on its (island, in-source) pair; the
 * distinct links are ranked in the resolver's selection order, and a
 * window's flow costs the seconds of its lowest-ranked device.
 *
 * Bands count ranks in prefix rows (BandState::rankPref): every rank
 * but the last owns a 2^lgBits-bit field, in rank order from the low
 * bits of 64-bit words. A field can count every free position, so
 * fields never carry into each other: a window's lowest present rank
 * is the lowest non-zero field of its row difference, else the last.
 */
struct InflowCtx
{
    /** What a device of one distinct link adds to a rank row: word
     *  and addend (0 for the last rank). */
    struct Bump
    {
        std::uint32_t word = 0;
        std::uint64_t add = 0;
    };
    std::vector<Bump> byId;
    std::vector<std::uint32_t> idOf; ///< per pair, at 2·island + in-src
    std::vector<double> seconds;     ///< per rank, into n devices
    std::vector<char> inSrc;         ///< per free pos
    std::size_t firstWord = 0;       ///< this inflow's words in a row
    std::size_t words = 0;
    unsigned lgBits = 0;
    std::vector<LinkParams> links; ///< rankLinks() scratch
    std::vector<std::uint32_t> order;

    /** Rank the links of @p source over @p num_islands islands, price
     *  @p bytes into @p n devices per rank, and lay the counters out
     *  from row word @p first_word. */
    void
    rankLinks(FlowSource &source, double bytes, std::uint32_t n,
              std::uint32_t num_islands, std::size_t first_word,
              unsigned lg_bits)
    {
        // Neighbouring islands mostly resolve alike: try the last
        // link before searching.
        links.clear();
        idOf.assign(2 * static_cast<std::size_t>(num_islands), 0);
        std::uint32_t id = 0;
        for (std::uint32_t isl = 0; isl < num_islands; ++isl) {
            for (std::uint32_t in = 0; in < 2; ++in) {
                if (in && source.countIn(isl) == 0)
                    continue; // no source device there
                const LinkParams l = source.link(isl, in != 0);
                auto same = [&l](const LinkParams &o) {
                    return o.bandwidth == l.bandwidth &&
                           o.latency == l.latency;
                };
                if (links.empty() || !same(links[id]))
                    id = static_cast<std::uint32_t>(
                        std::find_if(links.begin(), links.end(), same) -
                        links.begin());
                if (id == links.size())
                    links.push_back(l);
                idOf[2 * isl + in] = id;
            }
        }
        order.resize(links.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return FlowSource::better(links[a], links[b]);
                  });
        const std::uint32_t last =
            static_cast<std::uint32_t>(links.size() - 1);
        firstWord = first_word;
        words = (last + (64 >> lg_bits) - 1) >> (6 - lg_bits);
        lgBits = lg_bits;
        seconds.resize(links.size());
        byId.assign(links.size(), Bump{});
        for (std::uint32_t r = 0; r < last; ++r)
            byId[order[r]] = {
                static_cast<std::uint32_t>(firstWord + (r >> (6 - lg_bits))),
                std::uint64_t{1} << ((r << lg_bits) & 63)};
        for (std::uint32_t r = 0; r < order.size(); ++r)
            seconds[r] = source.seconds(bytes, n, links[order[r]]);
    }

    /** What the device at free position @p pos, in island
     *  @p island, adds to a rank row. */
    const Bump &
    bumpAt(std::size_t pos, std::uint32_t island) const
    {
        return byId[idOf[2 * static_cast<std::size_t>(island) +
                         inSrc[pos]]];
    }

    /** Cheapest seconds of any rank between prefix rows @p lo and
     *  @p hi, @p positions apart (a slower link can cost less through
     *  its latency: the minimum over values, not the first rank). */
    double
    cheapest(const std::uint64_t *hi, const std::uint64_t *lo,
             std::size_t positions) const
    {
        const std::size_t last = seconds.size() - 1;
        const std::uint64_t mask = (std::uint64_t{1} << (1u << lgBits)) - 1;
        std::size_t counted = 0;
        double t = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < last; ++r) {
            const std::size_t w = firstWord + (r >> (6 - lgBits));
            const std::uint64_t c =
                ((hi[w] - lo[w]) >> ((r << lgBits) & 63)) & mask;
            counted += c;
            if (c > 0)
                t = std::min(t, seconds[r]);
        }
        return counted < positions ? std::min(t, seconds[last]) : t;
    }

    /** Rank of the lowest non-zero field of word @p j, if any. */
    std::size_t
    lowestRank(std::size_t j, std::uint64_t fields) const
    {
        return fields == 0
                   ? seconds.size() - 1
                   : (j << (6 - lgBits)) +
                         static_cast<std::size_t>(
                             std::countr_zero(fields) >> lgBits);
    }

    /** Seconds over the lowest rank with devices between prefix rows
     *  @p lo and @p hi. */
    double
    rowSeconds(const std::uint64_t *hi, const std::uint64_t *lo) const
    {
        std::size_t j = 0;
        while (j + 1 < words && hi[firstWord + j] == lo[firstWord + j])
            ++j;
        return seconds[lowestRank(
            j, words == 0 ? 0 : hi[firstWord + j] - lo[firstWord + j])];
    }

    /** Seconds into the window at free positions @p window, whose
     *  devices add @p bumps (row_words words per position): those of
     *  its lowest rank, the lowest field any of them sets. */
    double
    windowSeconds(const std::vector<std::uint32_t> &window,
                  const std::uint64_t *bumps, std::size_t row_words) const
    {
        std::uint64_t any = 0;
        std::size_t j = 0;
        for (; j < words; ++j) {
            for (std::uint32_t p : window)
                any |= bumps[p * row_words + firstWord + j];
            if (any != 0)
                break;
        }
        return seconds[lowestRank(j, any)];
    }
};

/**
 * Per-band incremental scoring state: prefix counts that make every
 * length-n window of the band scoreable in O(1). Buffers only grow
 * (every element read this entry is written this entry), so bands
 * re-use capacity across entries without re-zeroing.
 */
struct BandState
{
    std::size_t numWindows = 0; ///< B - n + 1, or 0 when B < n
    double minTotal = 0; ///< min candidate total along the band

    std::vector<std::uint32_t> chgPref; ///< island changes, size B
    /**
     * Sparse residency: per residency row, the ascending band
     * indices whose position holds the row's key (intersection of
     * the band with the row's resident positions). The sweep
     * advances one pointer per row as the window slides — amortized
     * O(1) per window — and the pruning bound binary-searches a
     * chunk's whole range in one probe per row.
     */
    std::vector<std::vector<std::uint32_t>> resIdx;
    /** Link-rank counts (see InflowCtx): B+1 prefix rows of the
     *  entry's counter words. */
    std::vector<std::uint64_t> rankPref;
    std::vector<std::ptrdiff_t> eqWindow; ///< per inflow, -1 = none
};

/**
 * One scored candidate window. The sweep scans candidates in
 * enumeration order and keeps the first of the best: a candidate
 * replaces the best so far only when strictly better on (primary,
 * secondary).
 */
struct Candidate
{
    double primary = std::numeric_limits<double>::infinity();
    double secondary = std::numeric_limits<double>::infinity();
    double comm = 0;
    std::int32_t band = -1; ///< band index; -1 = explicit extra
    std::size_t start = 0;  ///< window start in band / extras index
    bool found = false;     ///< a scored window (false: none yet)
};

/** Whether @p a replaces @p b as the best candidate so far (see
 *  struct Candidate); any scored window replaces "none yet" on a
 *  tie. */
bool
betterThan(const Candidate &a, const Candidate &b)
{
    if (a.primary != b.primary)
        return a.primary < b.primary;
    if (a.secondary != b.secondary)
        return a.secondary < b.secondary;
    return !b.found;
}

/**
 * Shard-level inter-island attribution of one flow: the flow's bytes
 * land sharded across the destination devices, and a destination
 * device whose island holds no source device must receive its shard
 * over the inter-island fabric. Returns the fraction of destination
 * devices in that situation (0 when the flow is free). Deliberately
 * finer-grained than flowTime's best-pair pricing, which cannot see
 * the difference between an island-aligned window and one that
 * merely touches the source's island.
 */
double
interIslandShardFraction(const ClusterTopology &topo,
                         const FlowSource &src, const DeviceSet &dst)
{
    std::size_t miss = 0;
    for (DeviceId d : dst)
        if (src.countIn(topo.islandOf(d)) == 0)
            ++miss;
    return static_cast<double>(miss) / static_cast<double>(dst.size());
}

/**
 * Stage 1, entry setup: everything the later stages read of one wave
 * entry, built once per entry — scored or replayed alike — into
 * buffers reused across entries. It also owns the window-independent
 * score terms, so each is written once for the Sequential window,
 * band windows, explicit extras and the pruning bound.
 */
struct EntryContext
{
    EntryContext(const ClusterTopology &topo, const HardwareModel &hw,
                 const MemoryModel &mem)
        : topo(topo), hw(hw), mem(mem)
    {
    }

    void build(const MetaGraph &graph, const WaveEntry &e,
               const std::map<MetaOpId, DeviceSet> &last_slice);

    /**
     * Parameter affinity (§3.5): a window whose devices already store
     * this slice's parameter sets is rewarded; placing elsewhere would
     * grow the corresponding gradient-sync groups by roughly one ring
     * pass of the non-resident bytes. @p nonres flags the residency
     * rows no window device holds; the bytes accumulate in sig order
     * (the historical FP order).
     */
    double
    affinity(const std::vector<char> &nonres) const
    {
        double non_resident_bytes = 0;
        if (!row_key.empty())
            for (std::size_t s = 0; s < sig.size(); ++s)
                if (sig_row[s] >= 0 &&
                    nonres[static_cast<std::size_t>(sig_row[s])])
                    non_resident_bytes += sig[s].bytes;
        return 2.0 * non_resident_bytes /
               topo.config().interIslandCollective.bandwidth;
    }

    /** A window's comm score: its inflow seconds @p flows, plus the
     *  affinity term, plus the TP island penalty when the window
     *  @p spans islands — the order every score accumulates in. */
    double
    comm(double flows, const std::vector<char> &nonres, bool spans) const
    {
        double c = flows + affinity(nonres);
        if (spans)
            c += island_penalty;
        return c;
    }

    /**
     * Inter-island share of the committed flows into @p window, shard
     * by shard (see interIslandShardFraction), priced by the flow
     * oracle the sweep ranks windows with, plus the TP island penalty
     * of a straddling window.
     */
    double
    interIsland(const CollectiveModel &coll, const DeviceSet &window) const
    {
        double inter = 0;
        for (std::size_t k = 0; k < inflows.size(); ++k) {
            const double t =
                coll.flowTime(inflows[k].first, *inflows[k].second, window);
            if (t > 0)
                inter += t * interIslandShardFraction(topo, sources[k],
                                                      window);
        }
        if (cfg.tp > 1 && !topo.withinOneIsland(window))
            inter += island_penalty;
        return inter;
    }

    const ClusterTopology &topo;
    const HardwareModel &hw;
    const MemoryModel &mem;

    MetaOpId meta_op = 0;
    std::uint32_t n = 0;
    ParallelConfig cfg;
    double act_share = 0;                ///< activation bytes per device
    std::vector<SliceParam> sig;         ///< slice param signature
    /**
     * The distinct sig keys, each with its max share, in
     * first-occurrence sig order: the key list of the commit. A slice
     * can repeat a shared key; committing each distinct key once with
     * the strict-max share leaves the map byte-identical (same
     * distinct-insertion sequence, so the same bucket layout
     * deviceTotal() walks, and strict-max folding is order-independent
     * selection). Zero-byte keys are included on purpose: they still
     * sit in the class maps, where a probe hits them.
     */
    std::vector<std::pair<std::int64_t, double>> commit_keys;
    /** Inter-wave data sources, (bytes, source set), in the order the
     *  score accumulates them, and one flow resolver per source. */
    std::vector<std::pair<double, const DeviceSet *>> inflows;
    std::vector<FlowSource> sources;
    double island_penalty = 0; ///< TP group spanning islands
    /** Residency rows: one per distinct key carried with bytes. */
    std::vector<std::int32_t> sig_row; ///< sig index -> row, -1 = none
    std::vector<std::int64_t> row_key; ///< row -> param key

  private:
    /** Per distinct key: its commit_keys index and residency row
     *  (-1 = none yet). */
    struct KeySlot
    {
        std::size_t commit = 0;
        std::int32_t row = -1;
    };
    std::unordered_map<std::int64_t, KeySlot> key_slot_;
};

void
EntryContext::build(const MetaGraph &graph, const WaveEntry &e,
                    const std::map<MetaOpId, DeviceSet> &last_slice)
{
    const MetaOp &m = graph.metaOp(e.metaOp);
    meta_op = e.metaOp;
    n = e.n;
    cfg = hw.bestConfig(memberDesc(m), e.n);
    act_share = mem.activationBytesPerDevice(m, e.numOps, cfg);

    // Slice parameter signature: per member operator, its dedup key,
    // the parameter + optimizer share charged to each device, and
    // its raw bytes.
    sig.clear();
    sig.reserve(static_cast<std::size_t>(e.numOps));
    for (std::int64_t i = 0; i < e.numOps; ++i) {
        const OperatorDesc &op = graph.base().op(m.ops[e.opBegin + i]);
        sig.push_back({paramDedupKey(op),
                       mem.paramStateBoundBytes(op.paramBytes, cfg),
                       op.paramBytes});
    }

    // One first-occurrence pass: the distinct keys with their max
    // shares (commit_keys), and the residency rows — one per distinct
    // key carried by the slice with bytes (affinity scoring).
    commit_keys.clear();
    row_key.clear();
    sig_row.assign(sig.size(), -1);
    key_slot_.clear();
    for (std::size_t i = 0; i < sig.size(); ++i) {
        const SliceParam &sp = sig[i];
        const auto [it, inserted] =
            key_slot_.try_emplace(sp.key, KeySlot{commit_keys.size()});
        KeySlot &slot = it->second;
        if (inserted)
            commit_keys.emplace_back(sp.key, sp.share);
        else if (sp.share > commit_keys[slot.commit].second)
            commit_keys[slot.commit].second = sp.share;
        if (sp.bytes <= 0)
            continue;
        if (slot.row < 0) {
            slot.row = static_cast<std::int32_t>(row_key.size());
            row_key.push_back(sp.key);
        }
        sig_row[i] = slot.row;
    }

    // Inter-wave data sources feeding this entry, in the edge order
    // the score accumulates them: first slices pull from predecessor
    // MetaOps, later slices from the own MetaOp's previous slice.
    inflows.clear();
    if (e.opBegin == 0) {
        for (const MetaEdge &edge : graph.edges()) {
            if (edge.dst != e.metaOp)
                continue;
            auto it = last_slice.find(edge.src);
            if (it != last_slice.end())
                inflows.emplace_back(edge.flowBytes, &it->second);
        }
    } else {
        auto it = last_slice.find(e.metaOp);
        if (it != last_slice.end())
            inflows.emplace_back(m.activationBytes, &it->second);
    }
    sources.clear();
    for (const auto &[bytes, src] : inflows)
        sources.emplace_back(topo, *src);

    // Intra-island preference: a TP group spanning islands pays the
    // real collective slowdown. Window-independent, so hoisted out of
    // scoring. Charged at the *default* link classes (the same
    // reference the paper's heuristic uses) even on non-uniform
    // fabrics.
    island_penalty = 0;
    if (cfg.tp > 1) {
        const double shard = m.activationBytes / cfg.dp;
        const double slow = CollectiveModel::ringAllReduce(
            shard, cfg.tp, topo.config().interIsland);
        const double fast = CollectiveModel::ringAllReduce(
            shard, cfg.tp, topo.config().intraIsland);
        island_penalty =
            2.0 * static_cast<double>(e.numOps) * (slow - fast);
    }
}

/**
 * The selection rule shared by every candidate window and the pruning
 * bound: a window's (primary, secondary) from its comm score and its
 * peak would-be device load — comm plus weighted memory pressure, or
 * memory pressure alone in the memory-first fallback — and the load
 * no window may exceed.
 */
struct Selection
{
    double memoryBytes = 0;
    double memoryWeight = 0;
    double capacity = 0;
    bool memoryFirst = false;

    Candidate
    rank(double comm, double max_total) const
    {
        // Division by a positive constant is monotone, so dividing
        // the window maximum equals the per-device quotient maximum.
        const double peak_frac = max_total / memoryBytes;
        Candidate c;
        c.comm = comm;
        c.found = true;
        if (memoryFirst) {
            c.primary = peak_frac;
            c.secondary = comm;
        } else {
            c.primary = comm + memoryWeight * peak_frac;
            c.secondary = peak_frac;
        }
        return c;
    }
};

/**
 * Entry placement order within a wave: highest communication volume
 * first (or largest memory first in the fallback pass), ties by
 * index; wave order for the Sequential strategy (@p ranked unset).
 * Sort keys are precomputed, not re-derived per comparison.
 */
std::vector<std::size_t>
entryOrder(const MetaGraph &graph, const Wave &wave,
           const HardwareModel &hw, const MemoryModel &mem, bool ranked,
           bool memory_first)
{
    std::vector<std::size_t> order(wave.entries.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (!ranked)
        return order;
    std::vector<double> sort_key(wave.entries.size());
    for (std::size_t i = 0; i < wave.entries.size(); ++i) {
        const WaveEntry &e = wave.entries[i];
        const MetaOp &m = graph.metaOp(e.metaOp);
        if (memory_first) {
            sort_key[i] = mem.sliceBytesPerDevice(
                m, e.numOps, hw.bestConfig(memberDesc(m), e.n));
            continue;
        }
        double vol = m.activationBytes; // outflow / chain
        if (e.opBegin == 0)
            for (const MetaEdge &edge : graph.edges())
                if (edge.dst == e.metaOp)
                    vol += edge.flowBytes;
        sort_key[i] = vol;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (sort_key[a] != sort_key[b])
                      return sort_key[a] > sort_key[b];
                  return a < b;
              });
    return order;
}

/**
 * Mutable state of one placement attempt. Devices that received the
 * same commits in the same order store identical memory state, so the
 * state is kept per *device class*: every device names its class, and
 * a commit splits a class only when the window holds part of it.
 */
struct Attempt
{
    /** The stored memory state every member device of a class shares. */
    struct Class
    {
        /**
         * Stored parameter shares, deduplicated by key. The total
         * walks it in bucket order, and that accumulation order is
         * pinned by the byte-identity contract: a split copy-constructs
         * the map, which keeps the node order and bucket count, so
         * every member sums in the order its own map would have had.
         */
        std::unordered_map<std::int64_t, double> params;
        double activations = 0; ///< accumulated activation bytes
        double total = 0;       ///< activations, then params in walk order
        std::uint32_t members = 0;
    };
    std::vector<Class> classes;
    std::vector<std::uint32_t> classOf; ///< per device: its class

    /** Most recent device set of each MetaOp (last placed slice). */
    std::map<MetaOpId, DeviceSet> lastSlice;

    explicit Attempt(std::uint32_t num_devices)
        : classes(1), classOf(num_devices, 0)
    {
        classes[0].members = num_devices;
    }

    /** The share device @p d stores for @p key; nullptr when absent. */
    const double *
    held(DeviceId d, std::int64_t key) const
    {
        const auto &params = classes[classOf[d]].params;
        const auto it = params.find(key);
        return it == params.end() ? nullptr : &it->second;
    }

    double deviceTotal(DeviceId d) const { return classes[classOf[d]].total; }

    void commit(const EntryContext &ctx, const DeviceSet &window);

  private:
    /** Commit scratch per class: window devices, then their new class. */
    std::vector<std::uint32_t> hits_, dest_;
};

/**
 * Stage 5, commit: fold the entry of @p ctx into the attempt state on
 * @p window — the one path for scored and replayed entries alike. A
 * class the window holds whole is updated in place; the window's
 * members of any other class move to a copy of it, which is updated
 * once for all of them.
 */
void
Attempt::commit(const EntryContext &ctx, const DeviceSet &window)
{
    hits_.resize(classes.size());
    dest_.resize(classes.size());
    for (DeviceId d : window)
        ++hits_[classOf[d]];
    for (DeviceId d : window) {
        std::uint32_t &c = classOf[d];
        if (hits_[c] > 0) { // the class's first window device
            dest_[c] = c;
            if (hits_[c] < classes[c].members) {
                dest_[c] = static_cast<std::uint32_t>(classes.size());
                classes.push_back(classes[c]);
                classes[c].members -= hits_[c];
                classes.back().members = hits_[c];
            }
            Class &cls = classes[dest_[c]];
            cls.activations += ctx.act_share;
            for (const auto &[key, share] : ctx.commit_keys) {
                const auto [it, inserted] = cls.params.try_emplace(key, share);
                if (!inserted && share > it->second)
                    it->second = share;
            }
            cls.total = cls.activations;
            for (const auto &[key, bytes] : cls.params)
                cls.total += bytes;
            hits_[c] = 0;
        }
        c = dest_[c];
    }
    lastSlice[ctx.meta_op] = window;
}

/**
 * The Sequential ablation's window (Fig. 10): the next n consecutive
 * device ids after @p cursor, wrapping. No awareness and — by design
 * — no dependence on the island structure, so the baseline keeps its
 * semantics under any renumbering of the cluster. Its single
 * candidate is scored with the shared comm terms; the memory capacity
 * check never rejects in this ablation.
 */
DeviceSet
sequentialWindow(const EntryContext &ctx, const Attempt &state,
                 const CollectiveModel &coll, std::uint32_t num_devices,
                 std::uint32_t &cursor, std::vector<char> &nonres,
                 double &comm)
{
    DeviceSet win;
    for (std::uint32_t k = 0; k < ctx.n; ++k)
        win.push_back((cursor + k) % num_devices);
    canonicalize(win);
    // Wrapping can collapse duplicates only if n > num_devices, which
    // validate() forbids.
    cursor = (cursor + ctx.n) % num_devices;

    double flows = 0;
    for (const auto &[bytes, src] : ctx.inflows)
        flows += coll.flowTime(bytes, *src, win);
    nonres.assign(ctx.row_key.size(), 1);
    for (std::size_t r = 0; r < ctx.row_key.size(); ++r)
        for (DeviceId d : win)
            if (state.held(d, ctx.row_key[r]) != nullptr) {
                nonres[r] = 0;
                break;
            }
    comm = ctx.comm(flows, nonres,
                    ctx.cfg.tp > 1 && !ctx.topo.withinOneIsland(win));
    return win;
}

/**
 * Stages 2-4 of the Spindle strategy: the candidate-window search of
 * one entry. Candidate windows come from generateWindows() under the
 * configured WindowPolicy: bands (every length-n contiguous
 * subsequence of an ordered position sequence) and explicit extras.
 * Every window score derives from per-device quantities computed
 * once per entry (stage 2); the band sweeps combine them with
 * prefix/extremum queries over per-band state (stage 3) that
 * reproduce a full rescan bit for bit. The sweep itself (stage 4) is
 * a chunked scan in enumeration order — see struct Candidate.
 *
 * Scratch buffers live across entries and only grow: the elements an
 * entry reads are exactly the elements it wrote, so stale capacity
 * never leaks into scores.
 */
class WindowSweep
{
  public:
    WindowSweep(const ClusterTopology &topo, WindowPolicy policy)
        : topo_(topo), policy_(policy)
    {
    }

    /** The winning window of the entry of @p ctx over @p free under
     *  @p sel, and its comm score; false when no window fits. */
    bool choose(EntryContext &ctx, const Attempt &state,
                const DeviceSet &free, const Selection &sel,
                DeviceSet &window, double &comm);

  private:
    void positionPass(const Attempt &state);
    void position(const Attempt &state, std::size_t pos);
    void buildBands();
    void buildBandShared(std::size_t b);
    void buildBandRow(std::size_t b, std::size_t row);
    Candidate sweep();
    bool pruned(const BandState &bs, std::size_t w_lo, std::size_t w_hi,
                double bound);
    void scoreBandRange(std::size_t b, std::size_t w_lo, std::size_t w_hi,
                        Candidate &best);
    void scoreExtra(std::size_t ei, Candidate &best);

    /** True iff the window at free positions @p pos holds exactly
     *  the devices of @p src, in order (zero-cost transfer). */
    bool
    isSource(const DeviceSet &src, const std::uint32_t *pos) const
    {
        return src.size() == ctx_->n &&
               std::equal(src.begin(), src.end(), pos,
                          [this](DeviceId d, std::uint32_t p) {
                              return (*free_)[p] == d;
                          });
    }

    /** Prefix row @p i of @p bs's link-rank counts. */
    const std::uint64_t *
    rankRow(const BandState &bs, std::size_t i) const
    {
        return bs.rankPref.data() + i * row_words_;
    }

    const ClusterTopology &topo_;
    const WindowPolicy policy_;

    // The entry being placed.
    EntryContext *ctx_ = nullptr;
    const Selection *sel_ = nullptr;
    const DeviceSet *free_ = nullptr;
    std::size_t row_words_ = 0; ///< rank-counter words (InflowCtx)
    std::size_t rows_ = 0;      ///< residency rows

    std::vector<double> cand_total_;        ///< per free pos: total if placed
    std::vector<std::uint32_t> pos_island_; ///< per free pos: island index
    /** Per free pos: what its device adds to each rank-counter word
     *  (see InflowCtx), row_words_ words per position. */
    std::vector<std::uint64_t> pos_bump_;
    std::vector<InflowCtx> inflow_ctx_; ///< per-inflow link ranks
    /** Per residency row: ascending free-list positions holding it
     *  (filled only when fill_row_pos_: some band holds n positions). */
    std::vector<std::vector<std::uint32_t>> row_pos_;
    bool fill_row_pos_ = false;
    std::vector<std::uint32_t> pos_class_; ///< per free pos: device class
    std::vector<BandState> band_states_; ///< per-band prefix state
    CandidateWindows cand_windows_;      ///< generateWindows() output
    // Sweep scratch: the sliding-maximum deque, residency row
    // pointers and non-resident row flags.
    std::vector<std::size_t> dq_;
    std::vector<std::size_t> row_ptr_;
    std::vector<char> nonres_;

    /** Per device class, its probe this entry: the would-be total of
     *  a member and the residency rows it holds, as the range
     *  [rowsBegin, rowsEnd) of class_rows_. Explicit windows read a
     *  position's rows through pos_class_. */
    struct ClassProbe
    {
        double total = 0;
        std::uint32_t rowsBegin = 0, rowsEnd = 0;
        bool probed = false;
    };
    std::vector<ClassProbe> class_probe_;
    std::vector<std::uint32_t> class_rows_;
};

bool
WindowSweep::choose(EntryContext &ctx, const Attempt &state,
                    const DeviceSet &free, const Selection &sel,
                    DeviceSet &window, double &comm)
{
    ctx_ = &ctx;
    sel_ = &sel;
    free_ = &free;
    generateWindows(policy_, topo_, free, ctx.n, cand_windows_);
    positionPass(state);
    buildBands();
    const Candidate best = sweep();
    if (!best.found)
        return false;
    comm = best.comm;
    const std::uint32_t *at =
        best.band >= 0
            ? cand_windows_.bands[static_cast<std::size_t>(best.band)]
                      .data() +
                  best.start
            : cand_windows_.extras[best.start].data();
    window.resize(ctx.n);
    for (std::uint32_t j = 0; j < ctx.n; ++j)
        window[j] = free[at[j]];
    return true;
}

/**
 * Stage 2, position pass: entry-wide per-inflow link ranks, then per
 * free position the device's would-be total, residency rows, island
 * and rank-counter addends.
 */
void
WindowSweep::positionPass(const Attempt &state)
{
    const EntryContext &ctx = *ctx_;
    const DeviceSet &free = *free_;
    const std::size_t F = free.size();
    const std::uint32_t num_isl = topo_.numIslands();
    if (inflow_ctx_.size() < ctx.inflows.size())
        inflow_ctx_.resize(ctx.inflows.size());
    // Rank counters are 2^lg_bits bits wide, enough to count F (the
    // longest band) positions.
    const unsigned lg_bits = F < (1u << 8)    ? 3
                             : F < (1u << 16) ? 4
                                              : 5;
    row_words_ = 0;
    for (std::size_t k = 0; k < ctx.inflows.size(); ++k) {
        InflowCtx &ic = inflow_ctx_[k];
        ic.rankLinks(ctx_->sources[k], ctx.inflows[k].first, ctx.n,
                     num_isl, row_words_, lg_bits);
        row_words_ += ic.words;
        ic.inSrc.assign(F, 0);
        for (DeviceId s : *ctx.inflows[k].second) {
            const auto fit = std::lower_bound(free.begin(), free.end(), s);
            if (fit != free.end() && *fit == s)
                ic.inSrc[static_cast<std::size_t>(fit - free.begin())] = 1;
        }
    }
    if (pos_bump_.size() < F * row_words_)
        pos_bump_.resize(F * row_words_);
    rows_ = ctx.row_key.size();
    if (cand_total_.size() < F) {
        cand_total_.resize(F);
        pos_island_.resize(F);
        pos_class_.resize(F);
    }

    // Sparse residency: per row, the ascending free-list positions
    // whose device already holds the row's key, so bands intersect
    // them instead of scanning a rows x F flag matrix. Positions
    // arrive in ascending order. Only band builds read them, so they
    // are skipped when no band holds a length-n window.
    fill_row_pos_ = std::any_of(
        cand_windows_.bands.begin(), cand_windows_.bands.end(),
        [n = ctx.n](const auto &band) { return band.size() >= n; });
    if (fill_row_pos_) {
        if (row_pos_.size() < rows_)
            row_pos_.resize(rows_);
        for (std::size_t r = 0; r < rows_; ++r)
            row_pos_[r].clear();
    }
    class_probe_.assign(state.classes.size(), ClassProbe{});
    class_rows_.clear();
    for (std::size_t pos = 0; pos < F; ++pos)
        position(state, pos);
}

/**
 * One free position of the position pass (see positionPass). Members
 * of one class store the same state, so the first free member probes
 * the class and every other member reads that probe.
 */
void
WindowSweep::position(const Attempt &state, std::size_t pos)
{
    const EntryContext &ctx = *ctx_;
    const DeviceId d = (*free_)[pos];
    const std::uint32_t c = state.classOf[d];
    pos_class_[pos] = c;
    ClassProbe &cp = class_probe_[c];
    if (!cp.probed) {
        const Attempt::Class &cls = state.classes[c];
        double add = ctx.act_share;
        for (const SliceParam &sp : ctx.sig) {
            const auto it = cls.params.find(sp.key);
            if (it == cls.params.end())
                add += sp.share;
            else if (sp.share > it->second)
                add += sp.share - it->second;
        }
        cp.total = cls.total + add;
        cp.rowsBegin = static_cast<std::uint32_t>(class_rows_.size());
        for (std::size_t r = 0; r < rows_; ++r)
            if (cls.params.contains(ctx.row_key[r]))
                class_rows_.push_back(static_cast<std::uint32_t>(r));
        cp.rowsEnd = static_cast<std::uint32_t>(class_rows_.size());
        cp.probed = true;
    }
    cand_total_[pos] = cp.total;
    if (fill_row_pos_)
        for (std::uint32_t i = cp.rowsBegin; i < cp.rowsEnd; ++i)
            row_pos_[class_rows_[i]].push_back(
                static_cast<std::uint32_t>(pos));
    const std::uint32_t isl = topo_.islandOf(d);
    pos_island_[pos] = isl;
    // One counter word is the common case: sum in a register.
    if (row_words_ == 1) {
        std::uint64_t bump = 0;
        for (std::size_t k = 0; k < ctx.inflows.size(); ++k)
            bump += inflow_ctx_[k].bumpAt(pos, isl).add;
        pos_bump_[pos] = bump;
    } else if (row_words_ > 1) {
        std::uint64_t *bump = pos_bump_.data() + pos * row_words_;
        std::fill_n(bump, row_words_, 0);
        for (std::size_t k = 0; k < ctx.inflows.size(); ++k) {
            const InflowCtx::Bump &b = inflow_ctx_[k].bumpAt(pos, isl);
            bump[b.word] += b.add;
        }
    }
}

/**
 * Stage 3, band build: per band, sizing, then the shared prefix state
 * and the residency rows.
 */
void
WindowSweep::buildBands()
{
    const std::size_t n = ctx_->n;
    const std::size_t num_bands = cand_windows_.bands.size();
    if (band_states_.size() < num_bands)
        band_states_.resize(num_bands);
    for (std::size_t b = 0; b < num_bands; ++b) {
        BandState &bs = band_states_[b];
        const std::size_t B = cand_windows_.bands[b].size();
        bs.numWindows = B >= n ? B - n + 1 : 0;
        if (bs.numWindows == 0)
            continue;
        if (ctx_->cfg.tp > 1 && bs.chgPref.size() < B)
            bs.chgPref.resize(B);
        if (bs.resIdx.size() < rows_)
            bs.resIdx.resize(rows_);
        const std::size_t need = row_words_ * (B + 1);
        if (bs.rankPref.size() < need)
            bs.rankPref.resize(need);
        bs.eqWindow.assign(ctx_->inflows.size(), -1);
        buildBandShared(b);
        for (std::size_t row = 0; row < rows_; ++row)
            buildBandRow(b, row);
    }
}

/** Shared per-band state: island-change prefix, minimum load,
 *  link-rank prefixes, and the band window equal to a source set
 *  (zero-cost transfer). */
void
WindowSweep::buildBandShared(std::size_t b)
{
    BandState &bs = band_states_[b];
    const auto &band = cand_windows_.bands[b];
    const std::size_t B = band.size();
    const std::size_t n = ctx_->n;
    // The minimum load along the band: the admissible bound for the
    // memory term (every window's maximum is >= the band-wide minimum)
    // and the whole-band capacity skip.
    double mn = std::numeric_limits<double>::infinity();
    for (std::uint32_t p : band)
        mn = std::min(mn, cand_total_[p]);
    bs.minTotal = mn;

    // Bands ascend, so first position 0 and last B-1 force the
    // identity permutation — the common ContiguousRuns case, where
    // dropping the band[i] indirection lets the fills below vectorize.
    const bool ident =
        band[0] == 0 && band[B - 1] == static_cast<std::uint32_t>(B - 1);
    const auto at = [&](std::size_t i) {
        return ident ? static_cast<std::uint32_t>(i) : band[i];
    };

    // Island-change prefix: a window holds within one island iff no
    // adjacent pair inside it changes islands (exact under any
    // numbering). Only the TP island penalty reads it, so it is built
    // only when cfg.tp > 1.
    if (ctx_->cfg.tp > 1) {
        bs.chgPref[0] = 0;
        for (std::size_t i = 1; i < B; ++i)
            bs.chgPref[i] =
                bs.chgPref[i - 1] +
                (pos_island_[at(i)] != pos_island_[at(i - 1)] ? 1u : 0u);
    }

    std::uint64_t *pref = bs.rankPref.data();
    const std::size_t rw = row_words_;
    std::fill_n(pref, rw, 0);
    if (rw == 1) {
        for (std::size_t i = 0; i < B; ++i)
            pref[i + 1] = pref[i] + pos_bump_[at(i)];
    } else {
        for (std::size_t i = 0; i < B; ++i)
            for (std::size_t j = 0; j < rw; ++j)
                pref[(i + 1) * rw + j] =
                    pref[i * rw + j] + pos_bump_[at(i) * rw + j];
    }

    for (std::size_t k = 0; k < ctx_->inflows.size(); ++k) {
        const DeviceSet &src = *ctx_->inflows[k].second;
        if (src.size() != n)
            continue;
        // Devices ascend along a band, so binary-search the band for
        // the source's first device.
        std::size_t lo = 0, hi = B;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if ((*free_)[band[mid]] < src.front())
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo + n <= B && isSource(src, band.data() + lo))
            bs.eqWindow[k] = static_cast<std::ptrdiff_t>(lo);
    }
}

/** Resident band indices of one row along one band: intersect the
 *  band (ascending positions, see window_generator.h) with the
 *  row's resident positions. O(resident · log B) instead of O(B). */
void
WindowSweep::buildBandRow(std::size_t b, std::size_t row)
{
    BandState &bs = band_states_[b];
    const auto &band = cand_windows_.bands[b];
    std::vector<std::uint32_t> &out = bs.resIdx[row];
    out.clear();
    for (std::uint32_t p : row_pos_[row]) {
        const auto it = std::lower_bound(band.begin(), band.end(), p);
        if (it != band.end() && *it == p)
            out.push_back(static_cast<std::uint32_t>(it - band.begin()));
    }
}

/**
 * Stage 4, the chunked sweep: band windows, then explicit extras, in
 * enumeration order. Band windows are scored in chunks, the pruning
 * unit; pruning never changes the winner. The floor of 4n keeps the
 * per-chunk deque warm-up (n - 1 positions) under a quarter of the
 * chunk.
 */
Candidate
WindowSweep::sweep()
{
    const std::size_t chunk = std::max<std::size_t>(
        kMinSweepChunk, 4 * static_cast<std::size_t>(ctx_->n));
    Candidate best;
    for (std::size_t b = 0; b < cand_windows_.bands.size(); ++b) {
        const std::size_t W = band_states_[b].numWindows;
        for (std::size_t lo = 0; lo < W; lo += chunk)
            scoreBandRange(b, lo, std::min(lo + chunk, W), best);
    }
    for (std::size_t ei = 0; ei < cand_windows_.extras.size(); ++ei)
        scoreExtra(ei, best);
    return best;
}

/**
 * Admissible pruning of the band windows starting in [w_lo, w_hi):
 * an exact lower bound on every such window's primary — each term <=
 * its counterpart in every window's score, accumulated in the same
 * structural order, so rounded addition keeps the bound <= every
 * primary — compared *strictly* against @p bound, the best primary
 * scored so far. Every window of a pruned chunk scores a strictly
 * worse primary than the best so far, so none could replace it. See
 * placement.h.
 */
bool
WindowSweep::pruned(const BandState &bs, std::size_t w_lo,
                    std::size_t w_hi, double bound)
{
    const EntryContext &ctx = *ctx_;
    // Chunk windows cover band positions [w_lo, w_hi + n - 1).
    const std::size_t r_end = w_hi + ctx.n - 1;
    double comm = 0;
    if (!sel_->memoryFirst) {
        double flows = 0;
        for (std::size_t k = 0; k < ctx.inflows.size(); ++k) {
            if (ctx.inflows[k].first <= 0)
                continue;
            const std::ptrdiff_t eq = bs.eqWindow[k];
            if (eq >= static_cast<std::ptrdiff_t>(w_lo) &&
                eq < static_cast<std::ptrdiff_t>(w_hi))
                continue; // one pays 0
            // A window's link is present in it, hence in the chunk's
            // range.
            flows += inflow_ctx_[k].cheapest(rankRow(bs, r_end),
                                             rankRow(bs, w_lo),
                                             r_end - w_lo);
        }
        // Rows with no resident position in the whole range are
        // non-resident in every window; their bytes are a floor on
        // the affinity term.
        if (rows_ > 0) {
            nonres_.resize(rows_);
            for (std::size_t r = 0; r < rows_; ++r) {
                const auto &idx = bs.resIdx[r];
                const auto it = std::lower_bound(
                    idx.begin(), idx.end(),
                    static_cast<std::uint32_t>(w_lo));
                nonres_[r] = (it == idx.end() || *it >= r_end) ? 1 : 0;
            }
        }
        // The island penalty's floor is min(0, penalty).
        comm = ctx.comm(flows, nonres_,
                        ctx.cfg.tp > 1 && ctx.island_penalty < 0);
    }
    return sel_->rank(comm, bs.minTotal).primary > bound;
}

/**
 * Score band windows with start in [w_lo, w_hi). The memory extremum
 * uses a monotonic deque (sliding-window maximum over the per-device
 * candidate totals along the band); a chunk warms its own deque over
 * the n-1 positions before its first window, so the maximum — a
 * selection, not an accumulation — is bit-identical to the full scan.
 */
void
WindowSweep::scoreBandRange(std::size_t b, std::size_t w_lo,
                            std::size_t w_hi, Candidate &best)
{
    const EntryContext &ctx = *ctx_;
    const Selection &sel = *sel_;
    const auto &band = cand_windows_.bands[b];
    const BandState &bs = band_states_[b];
    // Locals, not members: the flag stores below may alias any
    // member, and the hot loop should keep these in registers.
    const std::size_t n = ctx.n;
    const std::size_t rows = rows_;
    const bool tp = ctx.cfg.tp > 1;
    const double *total = cand_total_.data();

    if (bs.minTotal > sel.capacity)
        return; // every window fails capacity
    if (pruned(bs, w_lo, w_hi, best.primary))
        return;

    // Per-row sweep pointers: first resident band index >= w_lo;
    // advanced as the window slides (amortized O(1) per window).
    row_ptr_.resize(rows);
    nonres_.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        const auto &idx = bs.resIdx[r];
        row_ptr_[r] = static_cast<std::size_t>(
            std::lower_bound(idx.begin(), idx.end(),
                             static_cast<std::uint32_t>(w_lo)) -
            idx.begin());
    }

    std::vector<std::size_t> &dq = dq_;
    dq.clear();
    std::size_t head = 0;
    const std::size_t i_end = w_hi + n - 1;
    for (std::size_t i = w_lo; i < i_end; ++i) {
        while (dq.size() > head && total[band[dq.back()]] <= total[band[i]])
            dq.pop_back();
        dq.push_back(i);
        if (i + 1 < w_lo + n)
            continue; // window not yet full
        const std::size_t w = i + 1 - n;
        if (dq[head] < w)
            ++head;
        const double max_total = total[band[dq[head]]];
        if (max_total > sel.capacity)
            continue; // memory infeasible

        // Inter-wave communication, accumulated in the same source
        // order as always.
        double flows = 0;
        for (std::size_t k = 0; k < ctx.inflows.size(); ++k) {
            if (static_cast<std::ptrdiff_t>(w) == bs.eqWindow[k])
                continue; // data resident
            if (ctx.inflows[k].first <= 0)
                continue;
            flows += inflow_ctx_[k].rowSeconds(rankRow(bs, w + n),
                                               rankRow(bs, w));
        }
        // Residency flags from the sliding pointers into the sparse
        // resident-index lists.
        for (std::size_t r = 0; r < rows; ++r) {
            const auto &idx = bs.resIdx[r];
            std::size_t &ptr = row_ptr_[r];
            while (ptr < idx.size() && idx[ptr] < w)
                ++ptr;
            nonres_[r] =
                (ptr >= idx.size() || idx[ptr] >= w + n) ? 1 : 0;
        }
        Candidate c = sel.rank(
            ctx.comm(flows, nonres_,
                     tp && bs.chgPref[w + n - 1] != bs.chgPref[w]),
            max_total);
        c.band = static_cast<std::int32_t>(b);
        c.start = w;
        if (betterThan(c, best))
            best = c;
    }
}

/** Score one explicit window (cross-island unions etc.). */
void
WindowSweep::scoreExtra(std::size_t ei, Candidate &best)
{
    const EntryContext &ctx = *ctx_;
    const auto &win_pos = cand_windows_.extras[ei];
    double max_total = 0;
    for (std::uint32_t p : win_pos)
        max_total = std::max(max_total, cand_total_[p]);
    if (max_total > sel_->capacity)
        return;

    double flows = 0;
    for (std::size_t k = 0; k < ctx.inflows.size(); ++k) {
        if (ctx.inflows[k].first <= 0 ||
            isSource(*ctx.inflows[k].second, win_pos.data()))
            continue; // no bytes, or already resident
        flows += inflow_ctx_[k].windowSeconds(win_pos, pos_bump_.data(),
                                              row_words_);
    }
    if (rows_ > 0) {
        nonres_.assign(rows_, 1);
        for (std::uint32_t p : win_pos) {
            const ClassProbe &cp = class_probe_[pos_class_[p]];
            for (std::uint32_t i = cp.rowsBegin; i < cp.rowsEnd; ++i)
                nonres_[class_rows_[i]] = 0;
        }
    }
    bool spans = false;
    if (ctx.cfg.tp > 1) {
        const std::uint32_t first = pos_island_[win_pos.front()];
        spans = std::any_of(win_pos.begin(), win_pos.end(),
                            [&](std::uint32_t p) {
                                return pos_island_[p] != first;
                            });
    }
    Candidate c = sel_->rank(ctx.comm(flows, nonres_, spans), max_total);
    c.start = ei;
    if (betterThan(c, best))
        best = c;
}

/** Drop the committed @p window from @p free (single compaction pass;
 *  general windows need not be contiguous runs of it). */
void
removeFromFree(DeviceSet &free, const DeviceSet &window)
{
    std::size_t out = 0, take = 0;
    for (std::size_t pos = 0; pos < free.size(); ++pos) {
        if (take < window.size() && free[pos] == window[take]) {
            ++take;
            continue;
        }
        free[out++] = free[pos];
    }
    free.resize(out);
}

} // namespace

DevicePlacement::DevicePlacement(const ClusterTopology &topo,
                                 const HardwareModel &hw,
                                 const MemoryModel &mem,
                                 PlacementOptions options)
    : topo_(topo), hw_(hw), mem_(mem), options_(options)
{
}

PlacementResult
DevicePlacement::place(const MetaGraph &graph, ExecutionPlan &plan,
                       std::vector<PlacementCommit> *commit_log) const
{
    return placeWithPrefix(graph, plan, 0, {}, commit_log);
}

PlacementResult
DevicePlacement::placeWithPrefix(
    const MetaGraph &graph, ExecutionPlan &plan, std::size_t resume_wave,
    const std::vector<PlacementCommit> &prefix,
    std::vector<PlacementCommit> *commit_log) const
{
    if (commit_log != nullptr)
        commit_log->clear();

    // Comm-first from the replayed prefix. Replay recommits the
    // donor's exact per-device state, and wave scoring reads only
    // earlier commits plus graph data — never later waves — so this
    // pass commits bit for bit what a from-scratch comm-first pass
    // commits (the donor's prefix for waves < resume_wave *is* that
    // pass's prefix, since the leading levels are value-identical).
    // The log starts with the prefix records, so it equals the log of
    // a from-scratch pass: prefix first, then this pass's fresh
    // commits, in wave-major commit order.
    PlacementResult result;
    std::vector<CommitRecord> log = prefix;
    std::size_t fail_wave = 0;
    if (tryPlace(graph, plan, /*memory_first=*/false, result, resume_wave,
                 prefix, &log, &fail_wave)) {
        if (commit_log != nullptr)
            *commit_log = std::move(log);
        return result;
    }

    // Backtracking collapsed into a restart with memory balance as
    // the primary objective (§3.5 "alternative placements with
    // sub-optimal communication costs"). Preferred: resume from the
    // first infeasible wave, replaying the feasible prefix verbatim
    // instead of re-scoring it.
    if (fail_wave > 0) {
        PlacementResult partial;
        partial.usedMemoryFallback = true;
        partial.fallbackRestartWave = fail_wave;
        if (tryPlace(graph, plan, /*memory_first=*/true, partial,
                     fail_wave, log, nullptr, nullptr))
            return partial;
    }

    // Last resort: the historical full memory-first restart.
    result = {};
    result.usedMemoryFallback = true;
    fatalIf(!tryPlace(graph, plan, /*memory_first=*/true, result, 0, {},
                      nullptr, nullptr),
            "DevicePlacement: workload does not fit device memory even "
            "with memory-first placement");
    return result;
}

bool
DevicePlacement::tryPlace(const MetaGraph &graph, ExecutionPlan &plan,
                          bool memory_first, PlacementResult &result,
                          std::size_t resume_wave,
                          const std::vector<CommitRecord> &replay,
                          std::vector<CommitRecord> *log,
                          std::size_t *fail_wave) const
{
    const std::uint32_t num_devices = plan.numDevices;
    const CollectiveModel &coll = hw_.collectives();
    const bool sequential =
        options_.strategy == PlacementStrategy::Sequential;
    Attempt state(num_devices);
    EntryContext ctx(topo_, hw_, mem_);

    // Replay: recommit the feasible prefix (device choices and their
    // logged comm) without re-scoring it. The records replayed are
    // exactly the commits the logged pass made for waves before
    // resume_wave, in commit order, through the same commit as a
    // scored entry, so the attempt state ends up bit-identical to
    // that pass's state at the start of wave resume_wave.
    for (const CommitRecord &rec : replay) {
        if (rec.wave >= resume_wave)
            continue;
        const WaveEntry &e = plan.waves[rec.wave].entries[rec.entry];
        ctx.build(graph, e, state.lastSlice);
        state.commit(ctx, e.devices);
        result.estimatedCommSeconds += rec.comm;
        result.interIslandCommSeconds += rec.interIsland;
    }

    const Selection sel{
        topo_.device().memoryBytes, options_.memoryWeight,
        topo_.device().memoryBytes * kMemorySlack, memory_first};
    WindowSweep sweep(topo_, options_.windows);
    std::uint32_t seq_cursor = 0;
    std::vector<char> seq_nonres;

    for (std::size_t wi = resume_wave; wi < plan.waves.size(); ++wi) {
        Wave &wave = plan.waves[wi];
        DeviceSet free = topo_.allDevices();
        free.resize(std::min<std::size_t>(free.size(), num_devices));

        for (std::size_t idx : entryOrder(graph, wave, hw_, mem_,
                                          !sequential, memory_first)) {
            WaveEntry &e = wave.entries[idx];
            ctx.build(graph, e, state.lastSlice);
            panicIf(free.size() < e.n,
                    "tryPlace: scheduler exceeded wave capacity");

            DeviceSet win;
            double comm = 0;
            if (sequential) {
                win = sequentialWindow(ctx, state, coll, num_devices,
                                       seq_cursor, seq_nonres, comm);
            } else if (!sweep.choose(ctx, state, free, sel, win, comm)) {
                if (fail_wave != nullptr)
                    *fail_wave = wi;
                return false; // nothing fits: trigger fallback
            } else {
                removeFromFree(free, win);
            }

            // Attribution reads the inflow sets, so it precedes the
            // commit, which replaces this MetaOp's last slice.
            const double inter = ctx.interIsland(coll, win);
            result.estimatedCommSeconds += comm;
            result.interIslandCommSeconds += inter;
            if (log != nullptr)
                log->push_back({static_cast<std::uint32_t>(wi),
                                static_cast<std::uint32_t>(idx), comm,
                                inter});
            state.commit(ctx, win);
            e.devices = std::move(win);
        }
    }

    result.peakBytes.assign(num_devices, 0.0);
    for (std::uint32_t d = 0; d < num_devices; ++d)
        result.peakBytes[d] = state.deviceTotal(d);
    return true;
}

} // namespace spindle
