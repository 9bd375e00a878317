#include "planner/placement.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"


namespace spindle {

namespace {

/** Dedup key for parameter storage: shared keys map to themselves,
 *  unshared operators get a unique negative key. */
std::int64_t
paramDedupKey(const OperatorDesc &op)
{
    if (op.paramKey != kNoParam)
        return op.paramKey;
    return -(static_cast<std::int64_t>(op.id) + 2);
}

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

/** Number of link classes a (src set, device) pair can fall into. */
constexpr int kNumLinkClasses = 3;

/** Packed per-class prefix counters (BandState::inflowPref): each
 *  class owns a disjoint 21-bit field of one 64-bit word. */
constexpr unsigned kClsFieldBits = 21;
constexpr std::uint64_t kClsFieldMask = (std::uint64_t{1} << kClsFieldBits) - 1;
static_assert(kNumLinkClasses * kClsFieldBits <= 64,
              "packed class counters must fit one word");

/** Below this much estimated per-phase work (rough element-visit
 *  count) a parallel dispatch costs more than it saves; purely a
 *  performance threshold — both paths compute identical bytes. */
constexpr std::size_t kMinParallelWork = 1 << 12;

/** Smallest window-sweep chunk handed to a lane. */
constexpr std::size_t kMinSweepChunk = 128;

/**
 * Entry-wide per-inflow scoring context (uniform-fabric fast path):
 * the per-class flow times and, per free position, the fastest link
 * class the device has any pair with the source set in.
 */
struct InflowCtx
{
    double flowByClass[kNumLinkClasses] = {0, 0, 0};
    std::uint32_t srcSize = 0;
    std::vector<std::uint8_t> cls;               ///< per free pos
    std::vector<std::uint32_t> srcCountByIsland; ///< per island
    /** Per free pos: device is in the source set. Marked from the
     *  (small) source set, so the position pass needs no per-device
     *  binary search. */
    std::vector<char> inSrc;
    /** Class a device of this island resolves to, in / not in the
     *  source set. A device's class depends only on (island, inSrc),
     *  so the per-position work collapses to one table lookup. */
    std::vector<std::uint8_t> clsIn, clsOut;
};

/**
 * Per-band incremental scoring state: prefix counts that make every
 * length-n window of the band scoreable in O(1). Buffers only grow
 * (every element read this entry is written this entry), so bands
 * re-use capacity across entries without re-zeroing.
 */
struct BandState
{
    std::size_t ordinalBase = 0; ///< global ordinal of window w=0
    std::size_t numWindows = 0;  ///< B - n + 1, or 0 when B < n
    double minTotal = 0; ///< min candidate total along the band

    std::vector<std::uint32_t> chgPref; ///< island changes, size B
    /**
     * Sparse residency: per residency row, the ascending band
     * indices whose position holds the row's key (intersection of
     * the band with the row's holder-position list). The sweep
     * advances one pointer per row as the window slides — amortized
     * O(1) per window — and the pruning bound binary-searches a
     * chunk's whole range in one probe per row.
     */
    std::vector<std::vector<std::uint32_t>> resIdx;
    /**
     * Link-class counts, inflows x (B+1), the kNumLinkClasses
     * per-class counters packed into disjoint 21-bit fields of one
     * word (a band never exceeds 2^21 positions). One add per
     * position instead of kNumLinkClasses, and a window's class
     * presence is one subtraction — fields are individually
     * monotone, so the difference never borrows across them.
     */
    std::vector<std::uint64_t> inflowPref;
    std::vector<std::ptrdiff_t> eqWindow; ///< per inflow, -1 = none
};

/**
 * One scored candidate window. The placer's historical selection
 * rule — scan candidates in enumeration order, replace on strictly
 * better (primary, secondary) — equals a minimum under the
 * lexicographic order (primary, secondary, ordinal), which is what
 * makes the parallel sweep's merge deterministic and byte-identical
 * to the serial scan at any thread count.
 */
struct Candidate
{
    double primary = std::numeric_limits<double>::infinity();
    double secondary = std::numeric_limits<double>::infinity();
    double comm = 0;
    std::size_t ordinal = std::numeric_limits<std::size_t>::max();
    std::int32_t band = -1; ///< band index; -1 = explicit extra
    std::size_t start = 0;  ///< window start in band / extras index

    bool
    found() const
    {
        return ordinal != std::numeric_limits<std::size_t>::max();
    }
};

bool
betterThan(const Candidate &a, const Candidate &b)
{
    if (a.primary != b.primary)
        return a.primary < b.primary;
    if (a.secondary != b.secondary)
        return a.secondary < b.secondary;
    return a.ordinal < b.ordinal;
}

/** One chunk of the window sweep: a start range of one band, or
 *  (band < 0) a range of explicit extras. */
struct SweepTask
{
    std::int32_t band = -1;
    std::size_t lo = 0;
    std::size_t hi = 0;
};

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
                         const DeviceSet &src, const DeviceSet &dst,
                         std::vector<char> &island_scratch)
{
    island_scratch.assign(topo.numIslands(), 0);
    for (DeviceId s : src)
        island_scratch[topo.islandOf(s)] = 1;
    std::size_t miss = 0;
    for (DeviceId d : dst)
        if (!island_scratch[topo.islandOf(d)])
            ++miss;
    return static_cast<double>(miss) / static_cast<double>(dst.size());
}

} // namespace

/**
 * Mutable state of one placement attempt.
 *
 * Per-device totals are cached: the former deviceTotal() walked the
 * whole parameter map on every candidate window of every entry
 * (quadratic in practice). The cache is refreshed lazily after a
 * commit dirties a device, by replaying the exact walk the uncached
 * code performed — cached reads are bit-identical, and each device
 * is re-walked at most once per committed entry instead of once per
 * candidate window. The parallel position pass touches distinct
 * devices on distinct lanes, so the lazy refresh stays race-free.
 */
struct DevicePlacement::Attempt
{
    /**
     * Per-device stored parameter state, deduplicated by key. The
     * map stays the owner: deviceTotal() walks it in bucket order,
     * and that accumulation order is pinned by the byte-identity
     * contract.
     */
    std::vector<std::unordered_map<std::int64_t, double>> params;

    /**
     * Sorted-by-key mirror of params, one vector per device, probed
     * by the candidate sweep with binary searches instead of map
     * lookups. The values are the exact doubles the map holds, so a
     * mirror probe feeds the scoring arithmetic the same bits a map
     * probe would. Re-derived per committed device (a device's
     * parameter set changes only when an entry commits to it).
     */
    std::vector<std::vector<std::pair<std::int64_t, double>>> flat;

    /**
     * Reverse index: parameter key -> devices holding it. Lists are
     * unsorted and append-only; a device is appended exactly once,
     * when the key first lands on it, so each list is exactly the
     * key's holder set. The sweep unions an entry's key lists into
     * the "affected" device set — the only devices whose candidate
     * total can differ from the shared all-miss base.
     */
    std::unordered_map<std::int64_t, std::vector<DeviceId>> holders;

    /** Per-device accumulated activation bytes. */
    std::vector<double> activations;

    /** Most recent device set of each MetaOp (last placed slice). */
    std::map<MetaOpId, DeviceSet> lastSlice;

    /** Lazily refreshed deviceTotal() cache (see class comment). */
    std::vector<double> total_cache;
    std::vector<char> total_dirty;

    /** Lazy-refresh bits for the flat mirror: commits just flag the
     *  device, and the next probe re-derives. Probes from the
     *  parallel position pass touch distinct devices on distinct
     *  lanes (like the deviceTotal cache), so the lazy refresh
     *  stays race-free. */
    std::vector<char> flat_dirty;

    void
    init(std::uint32_t num_devices)
    {
        params.assign(num_devices, {});
        flat.assign(num_devices, {});
        flat_dirty.assign(num_devices, 0);
        holders.clear();
        activations.assign(num_devices, 0.0);
        total_cache.assign(num_devices, 0.0);
        total_dirty.assign(num_devices, 1);
    }

    void
    markDirty(DeviceId d)
    {
        total_dirty[d] = 1;
        flat_dirty[d] = 1;
    }

    /** Re-derive flat[d] from params[d]. Sorting by key makes the
     *  mirror independent of the map's bucket order. */
    void
    refreshFlat(DeviceId d)
    {
        auto &fv = flat[d];
        fv.clear();
        fv.reserve(params[d].size());
        for (const auto &kv : params[d])
            fv.push_back(kv);
        std::sort(fv.begin(), fv.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        flat_dirty[d] = 0;
    }

    /**
     * Fold a committed slice into flat[d] incrementally: every key
     * of @p keys (sorted, deduplicated) takes its value from the
     * already-updated map — existing entries in place, new keys
     * appended (ascending, since @p keys ascend) and merged. O(K)
     * per device instead of refreshFlat's O(K log K) rebuild, which
     * matters because commits are the only steady-state writer.
     */
    void
    mergeFlat(DeviceId d, const std::vector<std::int64_t> &keys,
              const std::vector<double> &shares)
    {
        if (flat_dirty[d]) {
            refreshFlat(d); // map changed behind the mirror: rebuild
            return;
        }
        auto &fv = flat[d];
        const std::size_t old = fv.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const auto begin = fv.begin();
            const auto it = std::lower_bound(
                begin, begin + static_cast<std::ptrdiff_t>(old),
                keys[i], [](const auto &a, std::int64_t k) {
                    return a.first < k;
                });
            // The committed value is the strict-max fold of the
            // existing share (exact in the clean mirror) with the
            // slice's maximum share — no map lookup needed.
            if (it != begin + static_cast<std::ptrdiff_t>(old) &&
                it->first == keys[i]) {
                if (shares[i] > it->second)
                    it->second = shares[i];
            } else {
                fv.emplace_back(keys[i], shares[i]);
            }
        }
        // Slice keys usually all sort above the device's existing
        // keys (fresh parameters get fresh dedup keys), leaving the
        // append already in order — skip the merge (and its internal
        // temp buffer) then.
        if (fv.size() == old || old == 0 ||
            fv[old - 1].first < fv[old].first)
            return;
        std::inplace_merge(
            fv.begin(), fv.begin() + static_cast<std::ptrdiff_t>(old),
            fv.end(), [](const auto &a, const auto &b) {
                return a.first < b.first;
            });
    }

    /** Binary-search flat[d] for @p key; nullptr when absent.
     *  Refreshes a stale mirror first (see flat_dirty). */
    const double *
    findFlat(DeviceId d, std::int64_t key)
    {
        if (flat_dirty[d])
            refreshFlat(d);
        const auto &fv = flat[d];
        const auto it = std::lower_bound(
            fv.begin(), fv.end(), key,
            [](const auto &a, std::int64_t k) { return a.first < k; });
        if (it == fv.end() || it->first != key)
            return nullptr;
        return &it->second;
    }

    double
    deviceTotal(DeviceId d)
    {
        if (total_dirty[d]) {
            double total = activations[d];
            for (const auto &[key, bytes] : params[d])
                total += bytes;
            total_cache[d] = total;
            total_dirty[d] = 0;
        }
        return total_cache[d];
    }
};

DevicePlacement::DevicePlacement(const ClusterTopology &topo,
                                 const HardwareModel &hw,
                                 const MemoryModel &mem,
                                 PlacementOptions options,
                                 ThreadPool *pool)
    : topo_(topo), hw_(hw), mem_(mem), options_(options), pool_(pool)
{
}

const WindowGenerator &
DevicePlacement::generator() const
{
    if (options_.generator != nullptr)
        return *options_.generator;
    return builtinWindowGenerator(options_.windows);
}

PlacementResult
DevicePlacement::place(const MetaGraph &graph, ExecutionPlan &plan,
                       std::vector<PlacementCommit> *commit_log) const
{
    if (commit_log != nullptr)
        commit_log->clear();
    PlacementResult result;
    std::vector<CommitRecord> log;
    std::size_t fail_wave = 0;
    if (tryPlace(graph, plan, /*memory_first=*/false, result, 0, nullptr,
                 &log, &fail_wave)) {
        if (commit_log != nullptr)
            *commit_log = std::move(log);
        return result;
    }

    // Backtracking collapsed into a restart with memory balance as
    // the primary objective (§3.5 "alternative placements with
    // sub-optimal communication costs"). Preferred: resume from the
    // first infeasible wave, replaying the feasible prefix verbatim
    // instead of re-scoring it.
    if (options_.partialFallbackRestart && fail_wave > 0) {
        PlacementResult partial;
        partial.usedMemoryFallback = true;
        partial.fallbackRestartWave = fail_wave;
        if (tryPlace(graph, plan, /*memory_first=*/true, partial,
                     fail_wave, &log, nullptr, nullptr))
            return partial;
    }

    // Last resort: the historical full memory-first restart.
    result = {};
    result.usedMemoryFallback = true;
    fatalIf(!tryPlace(graph, plan, /*memory_first=*/true, result, 0,
                      nullptr, nullptr, nullptr),
            "DevicePlacement: workload does not fit device memory even "
            "with memory-first placement");
    return result;
}

PlacementResult
DevicePlacement::placeWithPrefix(
    const MetaGraph &graph, ExecutionPlan &plan, std::size_t resume_wave,
    const std::vector<PlacementCommit> &prefix,
    std::vector<PlacementCommit> *commit_log) const
{
    if (resume_wave == 0)
        return place(graph, plan, commit_log);
    if (commit_log != nullptr)
        commit_log->clear();

    // Comm-first from the replayed prefix. Replay recommits the
    // donor's exact per-device state, and wave scoring reads only
    // earlier commits plus graph data — never later waves — so this
    // pass commits bit for bit what a from-scratch comm-first pass
    // commits (the donor's prefix for waves < resume_wave *is* that
    // pass's prefix, since the leading levels are value-identical).
    PlacementResult result;
    std::vector<CommitRecord> fresh;
    std::size_t fail_wave = 0;
    if (tryPlace(graph, plan, /*memory_first=*/false, result, resume_wave,
                 &prefix, &fresh, &fail_wave)) {
        if (commit_log != nullptr) {
            *commit_log = prefix;
            commit_log->insert(commit_log->end(), fresh.begin(),
                               fresh.end());
        }
        return result;
    }

    // Mirror place()'s fallback cascade exactly. The combined log
    // below equals the log a from-scratch comm-first pass would have
    // handed the partial restart: prefix records first, then this
    // pass's fresh commits, in wave-major commit order.
    std::vector<CommitRecord> combined = prefix;
    combined.insert(combined.end(), fresh.begin(), fresh.end());
    if (options_.partialFallbackRestart && fail_wave > 0) {
        PlacementResult partial;
        partial.usedMemoryFallback = true;
        partial.fallbackRestartWave = fail_wave;
        if (tryPlace(graph, plan, /*memory_first=*/true, partial,
                     fail_wave, &combined, nullptr, nullptr))
            return partial;
    }

    result = {};
    result.usedMemoryFallback = true;
    fatalIf(!tryPlace(graph, plan, /*memory_first=*/true, result, 0,
                      nullptr, nullptr, nullptr),
            "DevicePlacement: workload does not fit device memory even "
            "with memory-first placement");
    return result;
}

bool
DevicePlacement::tryPlace(const MetaGraph &graph, ExecutionPlan &plan,
                          bool memory_first, PlacementResult &result,
                          std::size_t resume_wave,
                          const std::vector<CommitRecord> *replay,
                          std::vector<CommitRecord> *log,
                          std::size_t *fail_wave) const
{
    const std::uint32_t num_devices = plan.numDevices;
    const double capacity =
        topo_.device().memoryBytes * options_.memorySlack;
    const CollectiveModel &coll = hw_.collectives();
    const WindowGenerator &window_gen = generator();
    const bool use_pool = pool_ != nullptr && pool_->threads() > 1;

    Attempt state;
    state.init(num_devices);

    // Per-op parameter share charged to each device of a slice.
    auto param_share = [&](const OperatorDesc &op, ParallelConfig cfg) {
        const double shard =
            op.paramBytes / cfg.tp /
            (mem_.params().zeroShardParams ? cfg.dp : 1.0);
        const double opt =
            op.paramBytes / cfg.tp * mem_.params().optimizerFactor /
            (mem_.params().zeroShardOptimizer ? cfg.dp : 1.0);
        return shard + opt;
    };

    // Partial-restart replay: recommit the feasible prefix (device
    // choices and their logged comm) without re-scoring it. The
    // records replayed are exactly the commits the failed pass made
    // for waves before resume_wave, in commit order, so the attempt
    // state ends up bit-identical to that pass's state at the start
    // of the first infeasible wave.
    if (resume_wave > 0) {
        panicIf(replay == nullptr, "tryPlace: resume without replay log");
        for (const CommitRecord &rec : *replay) {
            if (rec.wave >= resume_wave)
                continue;
            WaveEntry &e = plan.waves[rec.wave].entries[rec.entry];
            const MetaOp &m = graph.metaOp(e.metaOp);
            const ParallelConfig cfg =
                hw_.bestConfig(memberDesc(m), e.n);
            const double act_share =
                mem_.activationBytesPerDevice(m, e.numOps, cfg);
            for (DeviceId d : e.devices) {
                state.activations[d] += act_share;
                for (std::int64_t i = 0; i < e.numOps; ++i) {
                    const OperatorDesc &op =
                        graph.base().op(m.ops[e.opBegin + i]);
                    const std::int64_t key = paramDedupKey(op);
                    const double share = param_share(op, cfg);
                    auto [it, inserted] =
                        state.params[d].emplace(key, share);
                    if (inserted)
                        state.holders[key].push_back(d);
                    else if (share > it->second)
                        it->second = share;
                }
                state.markDirty(d);
            }
            state.lastSlice[e.metaOp] = e.devices;
            result.estimatedCommSeconds += rec.comm;
            result.interIslandCommSeconds += rec.interIsland;
        }
    }

    // The three *default* link classes a (src set, candidate device)
    // pair can use. CollectiveModel::flowTime maximizes bandwidth
    // over all (src, dst) pairs, so the sweep must (a) track, per
    // candidate device, *every* class it has a pair in — a device
    // sharing an island with one source device still has
    // inter-island pairs to the others — and (b) probe classes in
    // bandwidth order, not class-index order (a config may rank its
    // fabrics differently from the defaults). Two classes configured
    // to the exact same bandwidth but different latency are resolved
    // by flowTime's lower-latency tiebreak, which class-level
    // bandwidth bookkeeping cannot reproduce; such (pathological)
    // configs — and any topology whose islands override the default
    // classes (uniformLinks() false), where three classes cannot
    // describe the fabric at all — drop to scoring every window with
    // the flow oracle directly, keeping the bit-identical contract
    // unconditional.
    const LinkParams link_class[kNumLinkClasses] = {
        {topo_.device().copyBandwidth, 0.0}, // overlapping device
        topo_.config().intraIsland,          // same island
        topo_.config().interIsland,          // cross island
    };
    int class_by_bw[kNumLinkClasses] = {0, 1, 2};
    std::stable_sort(class_by_bw, class_by_bw + kNumLinkClasses,
                     [&](int a, int b) {
                         return link_class[a].bandwidth >
                                link_class[b].bandwidth;
                     });
    int rank_of_class[kNumLinkClasses];
    for (int r = 0; r < kNumLinkClasses; ++r)
        rank_of_class[class_by_bw[r]] = r;
    const bool tied_class_bandwidths =
        link_class[0].bandwidth == link_class[1].bandwidth ||
        link_class[0].bandwidth == link_class[2].bandwidth ||
        link_class[1].bandwidth == link_class[2].bandwidth;
    const bool exact_comm = tied_class_bandwidths || !topo_.uniformLinks();

    std::uint32_t seq_cursor = 0; // Sequential strategy cursor

    // Scratch buffers reused across entries. All are only-grow: the
    // elements an entry reads are exactly the elements it wrote, so
    // stale capacity never leaks into scores.
    std::vector<double> cand_total;        // per free pos: total if placed
    std::vector<std::uint32_t> pos_island; // per free pos: island index
    std::vector<SliceParam> sig;           // slice param signature
    std::vector<std::int64_t> uniq_keys;   // distinct sig keys, sorted
    std::vector<double> uniq_vals;         // per uniq key: max sig share
    /** (key, max share) in first-occurrence sig order — the commit
     *  loop's working set. Multi-task slices repeat shared keys many
     *  times; committing each distinct key once with the strict-max
     *  share leaves the map byte-identical (same distinct-insertion
     *  sequence, so the same bucket layout deviceTotal() walks, and
     *  strict-max folding is order-independent selection). */
    std::vector<std::pair<std::int64_t, double>> commit_keys;
    std::vector<char> key_seen;            // per uniq key, per entry
    std::vector<std::int32_t> sig_row;     // sig index -> residency row
    std::vector<std::int64_t> row_key;     // residency row -> param key
    std::unordered_map<std::int64_t, std::int32_t> row_of;
    /** Per row: ascending free-list positions holding the key. */
    std::vector<std::vector<std::uint32_t>> row_pos;
    std::vector<InflowCtx> inflow_ctx;     // per-inflow fast-path state
    std::vector<BandState> band_states;    // per-band prefix state
    CandidateWindows cand_windows;         // generator output
    std::vector<SweepTask> sweep_tasks;
    DeviceSet win_buf; // serial-sweep window scratch (exact-comm path)
    /** Free-list positions of the winning window (empty on the
     *  Sequential path), kept for the attribution fast path below. */
    std::vector<std::uint32_t> win_positions;
    std::vector<std::size_t> deque_scratch; // serial-sweep deque
    std::vector<std::size_t> rowptr_scratch; // serial residency ptrs
    std::vector<char> rownonres_scratch;     // serial residency flags
    std::vector<char> island_scratch; // inter-island attribution

    // Affected-device epoch stamps: device d holds at least one of
    // the current entry's keys iff affected_epoch[d] == entry_epoch.
    // Stamping instead of clearing keeps the per-entry cost at the
    // size of the holder lists, not the device count.
    std::vector<std::uint64_t> affected_epoch(num_devices, 0);
    std::uint64_t entry_epoch = 0;

    // Free-list position of each device this entry (valid iff
    // pos_epoch[d] == entry_epoch — the stamp doubles as the
    // free-membership test), filled by the position pass. Turns the
    // holder-list -> row-position intersection into O(1) lookups.
    std::vector<std::uint32_t> pos_of(num_devices, 0);
    std::vector<std::uint64_t> pos_epoch(num_devices, 0);

    // Best primary score committed so far in the current entry's
    // sweep, shared across lanes for admissible pruning. Relaxed is
    // enough: a stale read only prunes less, and pruning decisions
    // never change the winner (see placement.h).
    const bool prune = options_.bandPruning;
    std::atomic<double> prune_bound{
        std::numeric_limits<double>::infinity()};

    for (std::size_t wi = resume_wave; wi < plan.waves.size(); ++wi) {
        Wave &wave = plan.waves[wi];
        DeviceSet free = topo_.allDevices();
        free.resize(std::min<std::size_t>(free.size(), num_devices));

        // Entry placement order: highest communication volume first
        // (or largest memory first in the fallback pass). Sort keys
        // are precomputed; the former comparator re-derived them on
        // every comparison (including a bestConfig search per probe
        // in the fallback pass).
        std::vector<std::size_t> order(wave.entries.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        if (options_.strategy == PlacementStrategy::Spindle) {
            std::vector<double> sort_key(wave.entries.size());
            for (std::size_t i = 0; i < wave.entries.size(); ++i) {
                const WaveEntry &e = wave.entries[i];
                const MetaOp &m = graph.metaOp(e.metaOp);
                if (memory_first) {
                    ParallelConfig cfg =
                        hw_.bestConfig(memberDesc(m), e.n);
                    sort_key[i] =
                        mem_.sliceBytesPerDevice(m, e.numOps, cfg);
                } else {
                    double vol = m.activationBytes; // outflow / chain
                    if (e.opBegin == 0) {
                        for (const MetaEdge &edge : graph.edges())
                            if (edge.dst == e.metaOp)
                                vol += edge.flowBytes;
                    }
                    sort_key[i] = vol;
                }
            }
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (sort_key[a] != sort_key[b])
                              return sort_key[a] > sort_key[b];
                          return a < b;
                      });
        }

        for (std::size_t idx : order) {
            WaveEntry &e = wave.entries[idx];
            const MetaOp &m = graph.metaOp(e.metaOp);
            const ParallelConfig cfg = hw_.bestConfig(memberDesc(m), e.n);
            const double act_share =
                mem_.activationBytesPerDevice(m, e.numOps, cfg);

            panicIf(free.size() < e.n,
                    "tryPlace: scheduler exceeded wave capacity");

            // Slice parameter signature, computed once per entry.
            sig.clear();
            sig.reserve(static_cast<std::size_t>(e.numOps));
            for (std::int64_t i = 0; i < e.numOps; ++i) {
                const OperatorDesc &op =
                    graph.base().op(m.ops[e.opBegin + i]);
                sig.push_back({paramDedupKey(op), param_share(op, cfg),
                               op.paramBytes});
            }

            // Distinct keys of the slice (affected-set derivation
            // and reverse-index upkeep at commit). Zero-byte keys
            // are included on purpose: they still sit in the device
            // maps, so a device holding one is "affected" — its
            // probe loop takes the hit branch.
            uniq_keys.clear();
            for (const SliceParam &sp : sig)
                uniq_keys.push_back(sp.key);
            std::sort(uniq_keys.begin(), uniq_keys.end());
            uniq_keys.erase(
                std::unique(uniq_keys.begin(), uniq_keys.end()),
                uniq_keys.end());
            // Max share per distinct key (the value a device that
            // held nothing ends up storing — mergeFlat strict-max
            // folds it into the mirror at commit) and the distinct
            // keys in first-occurrence order (the commit loop's
            // working set, see commit_keys).
            uniq_vals.assign(uniq_keys.size(),
                             -std::numeric_limits<double>::infinity());
            key_seen.assign(uniq_keys.size(), 0);
            commit_keys.clear();
            for (const SliceParam &sp : sig) {
                const std::size_t i = static_cast<std::size_t>(
                    std::lower_bound(uniq_keys.begin(),
                                     uniq_keys.end(), sp.key) -
                    uniq_keys.begin());
                if (sp.share > uniq_vals[i])
                    uniq_vals[i] = sp.share;
                if (!key_seen[i]) {
                    key_seen[i] = 1;
                    commit_keys.emplace_back(sp.key, 0.0);
                }
            }
            // Resolve the shares once every occurrence is folded.
            for (auto &kv : commit_keys)
                kv.second = uniq_vals[static_cast<std::size_t>(
                    std::lower_bound(uniq_keys.begin(),
                                     uniq_keys.end(), kv.first) -
                    uniq_keys.begin())];

            // Inter-wave data sources feeding this entry, in the
            // edge order the score accumulates them: first slices
            // pull from predecessor MetaOps, later slices from the
            // own MetaOp's previous slice.
            std::vector<std::pair<double, const DeviceSet *>> inflows;
            if (e.opBegin == 0) {
                for (const MetaEdge &edge : graph.edges()) {
                    if (edge.dst != e.metaOp)
                        continue;
                    auto it = state.lastSlice.find(edge.src);
                    if (it != state.lastSlice.end())
                        inflows.emplace_back(edge.flowBytes,
                                             &it->second);
                }
            } else {
                auto it = state.lastSlice.find(e.metaOp);
                if (it != state.lastSlice.end())
                    inflows.emplace_back(m.activationBytes,
                                         &it->second);
            }

            // Intra-island preference: a TP group spanning islands
            // pays the real collective slowdown. Window-independent,
            // hoisted out of the scoring loop. Charged at the
            // *default* link classes (the same reference the paper's
            // heuristic uses) even on non-uniform fabrics.
            double island_penalty = 0;
            if (cfg.tp > 1) {
                const double shard = m.activationBytes / cfg.dp;
                const double slow = CollectiveModel::ringAllReduce(
                    shard, cfg.tp, topo_.config().interIsland);
                const double fast = CollectiveModel::ringAllReduce(
                    shard, cfg.tp, topo_.config().intraIsland);
                island_penalty = 2.0 * static_cast<double>(e.numOps) *
                                 (slow - fast);
            }

            double best_comm = 0;
            DeviceSet best_win;

            if (options_.strategy == PlacementStrategy::Sequential) {
                // Next consecutive device ids, wrapping; no
                // awareness, and — by design — no dependence on the
                // island structure, so the baseline keeps its
                // semantics under any renumbering of the cluster.
                DeviceSet win;
                for (std::uint32_t k = 0; k < e.n; ++k)
                    win.push_back((seq_cursor + k) % num_devices);
                canonicalize(win);
                // Wrapping can collapse duplicates only if n >
                // num_devices, which validate() forbids.
                seq_cursor = (seq_cursor + e.n) % num_devices;

                // Single candidate: score it directly (the memory
                // capacity check never rejects in this ablation).
                double peak_frac = 0;
                for (DeviceId d : win) {
                    double add = act_share;
                    for (const SliceParam &sp : sig) {
                        auto it = state.params[d].find(sp.key);
                        if (it == state.params[d].end())
                            add += sp.share;
                        else if (sp.share > it->second)
                            add += sp.share - it->second;
                    }
                    const double total = state.deviceTotal(d) + add;
                    peak_frac = std::max(
                        peak_frac, total / topo_.device().memoryBytes);
                }
                double comm = 0;
                for (const auto &[bytes, src] : inflows)
                    comm += coll.flowTime(bytes, *src, win);
                double non_resident_bytes = 0;
                for (const SliceParam &sp : sig) {
                    if (sp.bytes <= 0)
                        continue;
                    bool resident = false;
                    for (DeviceId d : win) {
                        if (state.params[d].count(sp.key)) {
                            resident = true;
                            break;
                        }
                    }
                    if (!resident)
                        non_resident_bytes += sp.bytes;
                }
                comm += options_.paramAffinityWeight * 2.0 *
                        non_resident_bytes /
                        topo_.config().interIslandCollective.bandwidth;
                if (cfg.tp > 1 && !topo_.withinOneIsland(win))
                    comm += island_penalty;
                best_comm = comm;
                best_win = std::move(win);
            } else {
                // Candidate windows come from the configured
                // generator: bands (every length-n contiguous
                // subsequence of an ordered position sequence) and
                // explicit extras. All window scores derive from
                // per-device quantities computed once per entry; the
                // band sweeps combine them with prefix/extremum
                // queries that reproduce a full rescan bit for bit.
                // The sweep itself is a (possibly parallel) reduction
                // over candidate ordinals — see struct Candidate.
                const std::size_t F = free.size();
                const std::uint32_t n = e.n;

                window_gen.generate({topo_, free, n}, cand_windows);

                // ---- Phase A setup: entry-wide per-inflow context
                // (uniform-fabric fast path) and residency rows.
                inflow_ctx.resize(inflows.size());
                if (!exact_comm) {
                    for (std::size_t k = 0; k < inflows.size(); ++k) {
                        const auto &[bytes, src_ptr] = inflows[k];
                        const DeviceSet &src = *src_ptr;
                        InflowCtx &ctx = inflow_ctx[k];

                        // The whole flow over the best pair, sharded
                        // across min(|src|, n) streams.
                        const double streams =
                            static_cast<double>(std::min<std::size_t>(
                                src.size(), n));
                        for (int c = 0; c < kNumLinkClasses; ++c)
                            ctx.flowByClass[c] =
                                bytes / streams /
                                    link_class[c].bandwidth +
                                link_class[c].latency;
                        ctx.srcSize =
                            static_cast<std::uint32_t>(src.size());
                        ctx.srcCountByIsland.assign(topo_.numIslands(),
                                                    0);
                        for (DeviceId s : src)
                            ++ctx.srcCountByIsland[topo_.islandOf(s)];
                        if (ctx.cls.size() < F)
                            ctx.cls.resize(F);

                        // A device's class is the fastest one it has
                        // any pair in: copy needs the device itself
                        // in src, intra another src device in its
                        // island, inter a src device in a different
                        // island. That depends only on (island,
                        // in-src), so resolve it here per island —
                        // probing classes in bandwidth order, as the
                        // per-position loop used to — and mark the
                        // in-src positions from the source set.
                        const std::size_t num_isl = topo_.numIslands();
                        ctx.clsIn.resize(num_isl);
                        ctx.clsOut.resize(num_isl);
                        for (std::size_t isl = 0; isl < num_isl;
                             ++isl) {
                            const std::uint32_t cnt =
                                ctx.srcCountByIsland[isl];
                            const bool avail_in[kNumLinkClasses] = {
                                true, cnt > 1, ctx.srcSize > cnt};
                            const bool avail_out[kNumLinkClasses] = {
                                false, cnt > 0, ctx.srcSize > cnt};
                            auto pick = [&](const bool *avail) {
                                int cls =
                                    class_by_bw[kNumLinkClasses - 1];
                                for (int r = 0; r < kNumLinkClasses;
                                     ++r) {
                                    if (avail[class_by_bw[r]]) {
                                        cls = class_by_bw[r];
                                        break;
                                    }
                                }
                                return static_cast<std::uint8_t>(cls);
                            };
                            ctx.clsIn[isl] = pick(avail_in);
                            ctx.clsOut[isl] = pick(avail_out);
                        }
                        ctx.inSrc.assign(F, 0);
                        for (DeviceId s : src) {
                            const auto fit = std::lower_bound(
                                free.begin(), free.end(), s);
                            if (fit != free.end() && *fit == s)
                                ctx.inSrc[static_cast<std::size_t>(
                                    fit - free.begin())] = 1;
                        }
                    }
                }

                // Residency rows: one per distinct parameter key
                // carried by the slice (affinity scoring).
                sig_row.assign(sig.size(), -1);
                row_of.clear();
                row_key.clear();
                for (std::size_t i = 0; i < sig.size(); ++i) {
                    if (sig[i].bytes <= 0)
                        continue;
                    auto [it, inserted] = row_of.emplace(
                        sig[i].key,
                        static_cast<std::int32_t>(row_key.size()));
                    if (inserted)
                        row_key.push_back(sig[i].key);
                    sig_row[i] = it->second;
                }
                const std::size_t rows = row_key.size();
                if (cand_total.size() < F) {
                    cand_total.resize(F);
                    pos_island.resize(F);
                }

                // The would-be per-device load splits into one
                // shared all-miss base and sparse overrides: a
                // device holding none of the slice's keys misses
                // every probe, so its delta is act_share plus every
                // share — accumulated here once, in the exact order
                // the probe loop performs, so the base is
                // bit-identical to the probes it replaces. Only the
                // *affected* devices (union of the keys' holder
                // lists) can deviate and take the probe loop.
                double sig_base = act_share;
                for (const SliceParam &sp : sig)
                    sig_base += sp.share;
                ++entry_epoch;
                for (std::int64_t key : uniq_keys) {
                    const auto hit = state.holders.find(key);
                    if (hit == state.holders.end())
                        continue;
                    for (DeviceId d : hit->second)
                        affected_epoch[d] = entry_epoch;
                }

                // ---- Phase A: per free position, the device's
                // would-be total, island, and link class per inflow.
                // Positions are independent (each lane touches its
                // own device's lazy total), so this is the entry's
                // first parallel region.
                auto compute_position = [&](std::size_t pos) {
                    const DeviceId d = free[pos];
                    pos_of[d] = static_cast<std::uint32_t>(pos);
                    pos_epoch[d] = entry_epoch;
                    double add;
                    if (affected_epoch[d] != entry_epoch) {
                        add = sig_base;
                    } else {
                        add = act_share;
                        for (const SliceParam &sp : sig) {
                            const double *held =
                                state.findFlat(d, sp.key);
                            if (held == nullptr)
                                add += sp.share;
                            else if (sp.share > *held)
                                add += sp.share - *held;
                        }
                    }
                    cand_total[pos] = state.deviceTotal(d) + add;
                    const std::uint32_t isl = topo_.islandOf(d);
                    pos_island[pos] = isl;

                    if (!exact_comm) {
                        // Class tables are precomputed per island
                        // (see the inflow setup above): one lookup
                        // per inflow.
                        for (std::size_t k = 0; k < inflows.size();
                             ++k) {
                            InflowCtx &ctx = inflow_ctx[k];
                            ctx.cls[pos] = ctx.inSrc[pos]
                                               ? ctx.clsIn[isl]
                                               : ctx.clsOut[isl];
                        }
                    }
                };
                const std::size_t pos_work =
                    F * (inflows.size() + 2);
                maybeParallelFor(pool_,
                                 pos_work >= kMinParallelWork, 0, F,
                                 16, compute_position);

                // Sparse residency: per row, the ascending free-list
                // positions whose device already holds the row's key
                // — exactly the still-free holders, so the lists
                // stay tiny relative to F and bands intersect them
                // instead of scanning a rows x F flag matrix.
                if (row_pos.size() < rows)
                    row_pos.resize(rows);
                for (std::size_t r = 0; r < rows; ++r) {
                    row_pos[r].clear();
                    const auto hit = state.holders.find(row_key[r]);
                    if (hit == state.holders.end())
                        continue;
                    for (DeviceId d : hit->second)
                        if (pos_epoch[d] == entry_epoch)
                            row_pos[r].push_back(pos_of[d]);
                    std::sort(row_pos[r].begin(), row_pos[r].end());
                }

                // ---- Phase B: per-band prefix state. Sizing and
                // ordinal bases are serial (cheap, and resizes must
                // not race); the fills are independent per band and
                // per residency row.
                const std::size_t num_bands = cand_windows.bands.size();
                if (band_states.size() < num_bands)
                    band_states.resize(num_bands);
                std::size_t ordinal = 0;
                std::size_t band_positions = 0;
                for (std::size_t b = 0; b < num_bands; ++b) {
                    BandState &bs = band_states[b];
                    const std::size_t B = cand_windows.bands[b].size();
                    bs.ordinalBase = ordinal;
                    bs.numWindows = B >= n ? B - n + 1 : 0;
                    ordinal += bs.numWindows;
                    if (bs.numWindows == 0)
                        continue;
                    band_positions += B;
                    if (cfg.tp > 1 && bs.chgPref.size() < B)
                        bs.chgPref.resize(B);
                    if (bs.resIdx.size() < rows)
                        bs.resIdx.resize(rows);
                    if (!exact_comm) {
                        const std::size_t need =
                            inflows.size() * (B + 1);
                        if (bs.inflowPref.size() < need)
                            bs.inflowPref.resize(need);
                        bs.eqWindow.assign(inflows.size(), -1);
                    }
                }
                const std::size_t extras_base = ordinal;
                const std::size_t total_candidates =
                    ordinal + cand_windows.extras.size();

                // Shared per-band state: island-change prefix,
                // link-class prefixes, and the band window equal to
                // a source set (zero-cost transfer).
                auto build_band_shared = [&](std::size_t b) {
                    BandState &bs = band_states[b];
                    if (bs.numWindows == 0)
                        return;
                    const auto &band = cand_windows.bands[b];
                    const std::size_t B = band.size();
                    // Bands ascend (generator contract), so first
                    // position 0 and last B-1 force the identity
                    // permutation — the common ContiguousRuns case,
                    // where dropping the band[i] indirection lets
                    // the fills below vectorize.
                    const bool ident =
                        band[0] == 0 &&
                        band[B - 1] == static_cast<std::uint32_t>(
                                           B - 1);
                    const auto at = [&](std::size_t i) {
                        return ident ? static_cast<std::uint32_t>(i)
                                     : band[i];
                    };

                    // Island-change prefix: a window holds within
                    // one island iff no adjacent pair inside it
                    // changes islands (exact under any numbering).
                    // Only the TP island penalty reads it, so it is
                    // built only when cfg.tp > 1. The minimum load
                    // along the band always is: it is the admissible
                    // bound for the memory term (every window's
                    // maximum is >= the band-wide minimum) and the
                    // whole-band capacity skip.
                    if (cfg.tp > 1) {
                        bs.chgPref[0] = 0;
                        for (std::size_t i = 1; i < B; ++i)
                            bs.chgPref[i] =
                                bs.chgPref[i - 1] +
                                (pos_island[at(i)] !=
                                         pos_island[at(i - 1)]
                                     ? 1u
                                     : 0u);
                    }
                    double mn;
                    if (ident) {
                        mn = cand_total[0];
                        for (std::size_t i = 1; i < B; ++i)
                            mn = std::min(mn, cand_total[i]);
                    } else {
                        mn = cand_total[band[0]];
                        for (std::size_t i = 1; i < B; ++i)
                            mn = std::min(mn, cand_total[band[i]]);
                    }
                    bs.minTotal = mn;

                    if (exact_comm)
                        return;
                    const std::size_t stride = B + 1;
                    for (std::size_t k = 0; k < inflows.size(); ++k) {
                        std::uint64_t *pref =
                            bs.inflowPref.data() + k * stride;
                        const InflowCtx &ctx = inflow_ctx[k];
                        pref[0] = 0;
                        if (ident) {
                            for (std::size_t i = 0; i < B; ++i)
                                pref[i + 1] =
                                    pref[i] +
                                    (std::uint64_t{1}
                                     << (kClsFieldBits * ctx.cls[i]));
                        } else {
                            for (std::size_t i = 0; i < B; ++i)
                                pref[i + 1] =
                                    pref[i] +
                                    (std::uint64_t{1}
                                     << (kClsFieldBits *
                                         ctx.cls[band[i]]));
                        }

                        const DeviceSet &src = *inflows[k].second;
                        if (src.size() == n) {
                            // Devices ascend along a band, so
                            // binary-search the band for the
                            // source's first device.
                            std::size_t lo = 0, hi = B;
                            while (lo < hi) {
                                const std::size_t mid = (lo + hi) / 2;
                                if (free[band[mid]] < src.front())
                                    lo = mid + 1;
                                else
                                    hi = mid;
                            }
                            if (lo + n <= B) {
                                bool equal = true;
                                for (std::uint32_t i = 0; i < n; ++i) {
                                    if (free[band[lo + i]] != src[i]) {
                                        equal = false;
                                        break;
                                    }
                                }
                                if (equal)
                                    bs.eqWindow[k] = static_cast<
                                        std::ptrdiff_t>(lo);
                            }
                        }
                    }
                };
                // Resident band indices of one row along one band:
                // intersect the band (ascending positions, per the
                // generator contract) with the row's holder-position
                // list. O(holders · log B) instead of O(B).
                auto build_band_row = [&](std::size_t b,
                                          std::size_t row) {
                    BandState &bs = band_states[b];
                    if (bs.numWindows == 0)
                        return;
                    const auto &band = cand_windows.bands[b];
                    std::vector<std::uint32_t> &out = bs.resIdx[row];
                    out.clear();
                    for (std::uint32_t p : row_pos[row]) {
                        const auto it = std::lower_bound(
                            band.begin(), band.end(), p);
                        if (it != band.end() && *it == p)
                            out.push_back(static_cast<std::uint32_t>(
                                it - band.begin()));
                    }
                };
                const std::size_t units_per_band = 1 + rows;
                const std::size_t num_units =
                    num_bands * units_per_band;
                auto build_unit = [&](std::size_t u) {
                    const std::size_t b = u / units_per_band;
                    const std::size_t sub = u % units_per_band;
                    if (sub == 0)
                        build_band_shared(b);
                    else
                        build_band_row(b, sub - 1);
                };
                const std::size_t band_work =
                    band_positions *
                    (2 + kNumLinkClasses * inflows.size());
                maybeParallelFor(pool_,
                                 band_work >= kMinParallelWork, 0,
                                 num_units, 1, build_unit);

                // ---- Phase C: the window sweep, a reduction over
                // the candidate ordinals. consider() mirrors the
                // historical replace-on-strictly-better scan (see
                // struct Candidate), and publishes improved
                // primaries into the shared pruning bound.
                prune_bound.store(
                    std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
                auto consider = [&](Candidate &best, double max_total,
                                    double comm, std::size_t ord,
                                    std::int32_t band,
                                    std::size_t start) {
                    const double peak_frac =
                        max_total / topo_.device().memoryBytes;
                    const double mem_score =
                        options_.memoryWeight * peak_frac;
                    double primary, secondary;
                    if (memory_first) {
                        primary = peak_frac;
                        secondary = comm;
                    } else {
                        primary = comm + mem_score;
                        secondary = peak_frac;
                    }
                    if (primary < best.primary ||
                        (primary == best.primary &&
                         (secondary < best.secondary ||
                          (secondary == best.secondary &&
                           ord < best.ordinal)))) {
                        best.primary = primary;
                        best.secondary = secondary;
                        best.comm = comm;
                        best.ordinal = ord;
                        best.band = band;
                        best.start = start;
                        if (prune) {
                            double cur = prune_bound.load(
                                std::memory_order_relaxed);
                            while (primary < cur &&
                                   !prune_bound
                                        .compare_exchange_weak(
                                            cur, primary,
                                            std::memory_order_relaxed))
                                ;
                        }
                    }
                };

                // Score band windows with start in [w_lo, w_hi). The
                // memory extremum uses a monotonic deque (sliding-
                // window maximum over the per-device candidate
                // totals along the band); a chunk warms its own
                // deque over the n-1 positions before its first
                // window, so the maximum — a selection, not an
                // accumulation — is bit-identical to the full scan.
                //
                // Before scoring, the chunk may be pruned: the lower
                // bound below is exact (each term <= its counterpart
                // in every window's score, accumulated in the same
                // structural order, so rounded addition keeps the
                // bound <= every primary), and a chunk is skipped
                // only when the bound is *strictly* above an
                // already-scored primary — such a chunk cannot
                // contain the winner even via the (secondary,
                // ordinal) tie-break, which only arbitrates equal
                // primaries. See placement.h.
                auto score_band_range =
                    [&](std::size_t b, std::size_t w_lo,
                        std::size_t w_hi, Candidate &best,
                        DeviceSet &win_scratch,
                        std::vector<std::size_t> &dq,
                        std::vector<std::size_t> &row_ptr,
                        std::vector<char> &row_nonres) {
                        const auto &band = cand_windows.bands[b];
                        const BandState &bs = band_states[b];
                        const std::size_t B = band.size();
                        const std::size_t stride = B + 1;

                        if (prune && bs.minTotal > capacity)
                            return; // every window fails capacity

                        if (prune) {
                            // Chunk windows cover band positions
                            // [w_lo, w_hi + n - 1).
                            const std::size_t r_end = w_hi + n - 1;
                            double lb = 0;
                            if (memory_first) {
                                lb = bs.minTotal /
                                     topo_.device().memoryBytes;
                            } else {
                                if (!exact_comm) {
                                    for (std::size_t k = 0;
                                         k < inflows.size(); ++k) {
                                        if (inflows[k].first <= 0)
                                            continue;
                                        const std::ptrdiff_t eq =
                                            bs.eqWindow[k];
                                        if (eq >= static_cast<
                                                      std::ptrdiff_t>(
                                                      w_lo) &&
                                            eq < static_cast<
                                                     std::ptrdiff_t>(
                                                     w_hi))
                                            continue; // one pays 0
                                        // Cheapest class present
                                        // anywhere in the range: a
                                        // window's class is present
                                        // in it, hence in the range,
                                        // hence covered by this min
                                        // (classes can invert the
                                        // bandwidth order via
                                        // latency, so min over
                                        // values, not first by
                                        // rank).
                                        const std::uint64_t *pref =
                                            bs.inflowPref.data() +
                                            k * stride;
                                        const std::uint64_t diff =
                                            pref[r_end] - pref[w_lo];
                                        double t = std::numeric_limits<
                                            double>::infinity();
                                        for (int c = 0;
                                             c < kNumLinkClasses;
                                             ++c) {
                                            if ((diff >>
                                                 (kClsFieldBits *
                                                  static_cast<
                                                      unsigned>(c))) &
                                                kClsFieldMask)
                                                t = std::min(
                                                    t,
                                                    inflow_ctx[k]
                                                        .flowByClass
                                                            [c]);
                                        }
                                        lb += t;
                                    }
                                }
                                // Rows with no resident position in
                                // the whole range are non-resident
                                // in every window; their bytes are a
                                // floor on the affinity term.
                                double nrb = 0;
                                if (rows > 0) {
                                    row_nonres.resize(rows);
                                    for (std::size_t r = 0; r < rows;
                                         ++r) {
                                        const auto &idx =
                                            bs.resIdx[r];
                                        const auto it =
                                            std::lower_bound(
                                                idx.begin(),
                                                idx.end(),
                                                static_cast<
                                                    std::uint32_t>(
                                                    w_lo));
                                        row_nonres[r] =
                                            (it == idx.end() ||
                                             *it >= r_end)
                                                ? 1
                                                : 0;
                                    }
                                    for (std::size_t s = 0;
                                         s < sig.size(); ++s) {
                                        const std::int32_t row =
                                            sig_row[s];
                                        if (row >= 0 &&
                                            row_nonres[static_cast<
                                                std::size_t>(row)])
                                            nrb += sig[s].bytes;
                                    }
                                }
                                lb += options_.paramAffinityWeight *
                                      2.0 * nrb /
                                      topo_.config()
                                          .interIslandCollective
                                          .bandwidth;
                                if (cfg.tp > 1)
                                    lb += std::min(0.0,
                                                   island_penalty);
                                lb += options_.memoryWeight *
                                      (bs.minTotal /
                                       topo_.device().memoryBytes);
                            }
                            if (lb > prune_bound.load(
                                         std::memory_order_relaxed))
                                return;
                        }

                        // Per-row sweep pointers: first resident
                        // band index >= w_lo; advanced as the window
                        // slides (amortized O(1) per window).
                        row_ptr.resize(rows);
                        row_nonres.resize(rows);
                        for (std::size_t r = 0; r < rows; ++r) {
                            const auto &idx = bs.resIdx[r];
                            row_ptr[r] = static_cast<std::size_t>(
                                std::lower_bound(
                                    idx.begin(), idx.end(),
                                    static_cast<std::uint32_t>(
                                        w_lo)) -
                                idx.begin());
                        }

                        dq.clear();
                        std::size_t head = 0;
                        const std::size_t i_end = w_hi + n - 1;
                        for (std::size_t i = w_lo; i < i_end; ++i) {
                            while (dq.size() > head &&
                                   cand_total[band[dq.back()]] <=
                                       cand_total[band[i]])
                                dq.pop_back();
                            dq.push_back(i);
                            if (i + 1 < w_lo + n)
                                continue; // window not yet full
                            const std::size_t w = i + 1 - n;
                            if (dq[head] < w)
                                ++head;
                            const double max_total =
                                cand_total[band[dq[head]]];

                            // Memory feasibility. Division by a
                            // positive constant is monotone, so
                            // dividing the window maximum equals the
                            // former per-device quotient maximum.
                            if (max_total > capacity)
                                continue;

                            // Inter-wave communication, accumulated
                            // in the same source order as always.
                            double comm = 0;
                            if (exact_comm && !inflows.empty()) {
                                // Exact fallback (see link_class
                                // comment).
                                win_scratch.resize(n);
                                for (std::uint32_t j = 0; j < n; ++j)
                                    win_scratch[j] =
                                        free[band[w + j]];
                                for (const auto &[bytes, src] :
                                     inflows)
                                    comm += coll.flowTime(
                                        bytes, *src, win_scratch);
                            } else {
                                for (std::size_t k = 0;
                                     k < inflows.size(); ++k) {
                                    if (static_cast<std::ptrdiff_t>(
                                            w) == bs.eqWindow[k])
                                        continue; // data resident
                                    if (inflows[k].first <= 0)
                                        continue;
                                    const std::uint64_t *pref =
                                        bs.inflowPref.data() +
                                        k * stride;
                                    const std::uint64_t diff =
                                        pref[w + n] - pref[w];
                                    // Fastest link class present in
                                    // the window (classes partition
                                    // the devices, so the probe
                                    // always finds one).
                                    int cls = class_by_bw
                                        [kNumLinkClasses - 1];
                                    for (int r = 0;
                                         r < kNumLinkClasses; ++r) {
                                        const int c = class_by_bw[r];
                                        if ((diff >>
                                             (kClsFieldBits *
                                              static_cast<unsigned>(
                                                  c))) &
                                            kClsFieldMask) {
                                            cls = c;
                                            break;
                                        }
                                    }
                                    comm +=
                                        inflow_ctx[k].flowByClass[cls];
                                }
                            }

                            // Parameter affinity (§3.5): reward
                            // windows whose devices already store
                            // this slice's parameter sets; placing
                            // elsewhere would grow the corresponding
                            // gradient-sync groups by roughly one
                            // ring pass of the non-resident bytes.
                            // The bytes accumulate in sig order (the
                            // historical FP order); the per-row
                            // flags come from the sliding pointers
                            // into the sparse resident-index lists.
                            double non_resident_bytes = 0;
                            if (rows > 0) {
                                for (std::size_t r = 0; r < rows;
                                     ++r) {
                                    const auto &idx = bs.resIdx[r];
                                    std::size_t &ptr = row_ptr[r];
                                    while (ptr < idx.size() &&
                                           idx[ptr] < w)
                                        ++ptr;
                                    row_nonres[r] =
                                        (ptr >= idx.size() ||
                                         idx[ptr] >= w + n)
                                            ? 1
                                            : 0;
                                }
                                for (std::size_t s = 0;
                                     s < sig.size(); ++s) {
                                    const std::int32_t row =
                                        sig_row[s];
                                    if (row >= 0 &&
                                        row_nonres[static_cast<
                                            std::size_t>(row)])
                                        non_resident_bytes +=
                                            sig[s].bytes;
                                }
                            }
                            comm += options_.paramAffinityWeight *
                                    2.0 * non_resident_bytes /
                                    topo_.config()
                                        .interIslandCollective
                                        .bandwidth;

                            if (cfg.tp > 1 &&
                                bs.chgPref[w + n - 1] !=
                                    bs.chgPref[w])
                                comm += island_penalty;

                            consider(best, max_total, comm,
                                     bs.ordinalBase + w,
                                     static_cast<std::int32_t>(b), w);
                        }
                    };

                // Score one explicit window (cross-island unions
                // etc.).
                auto score_extra = [&](std::size_t ei, Candidate &best,
                                       DeviceSet &win_scratch,
                                       std::vector<char> &row_nonres) {
                    const auto &win_pos = cand_windows.extras[ei];
                    panicIf(win_pos.size() != n,
                            "tryPlace: generator emitted a window of "
                            "the wrong size");
                    double max_total = 0;
                    for (std::uint32_t p : win_pos)
                        max_total =
                            std::max(max_total, cand_total[p]);
                    if (max_total > capacity)
                        return;

                    double comm = 0;
                    if (exact_comm && !inflows.empty()) {
                        win_scratch.resize(n);
                        for (std::uint32_t j = 0; j < n; ++j)
                            win_scratch[j] = free[win_pos[j]];
                        for (const auto &[bytes, src] : inflows)
                            comm += coll.flowTime(bytes, *src,
                                                  win_scratch);
                    } else {
                        for (std::size_t k = 0; k < inflows.size();
                             ++k) {
                            const InflowCtx &ctx = inflow_ctx[k];
                            const DeviceSet &src = *inflows[k].second;
                            if (src.size() == n) {
                                bool equal = true;
                                for (std::uint32_t j = 0; j < n;
                                     ++j) {
                                    if (free[win_pos[j]] != src[j]) {
                                        equal = false;
                                        break;
                                    }
                                }
                                if (equal)
                                    continue; // data already resident
                            }
                            if (inflows[k].first <= 0)
                                continue;
                            int best_rank = kNumLinkClasses - 1;
                            for (std::uint32_t p : win_pos) {
                                const int r =
                                    rank_of_class[ctx.cls[p]];
                                if (r < best_rank)
                                    best_rank = r;
                                if (best_rank == 0)
                                    break;
                            }
                            comm +=
                                ctx.flowByClass[class_by_bw[best_rank]];
                        }
                    }

                    double non_resident_bytes = 0;
                    if (rows > 0) {
                        row_nonres.resize(rows);
                        for (std::size_t r = 0; r < rows; ++r) {
                            const auto &rp = row_pos[r];
                            bool resident = false;
                            for (std::uint32_t p : win_pos) {
                                if (std::binary_search(rp.begin(),
                                                       rp.end(), p)) {
                                    resident = true;
                                    break;
                                }
                            }
                            row_nonres[r] = resident ? 0 : 1;
                        }
                        for (std::size_t s = 0; s < sig.size(); ++s) {
                            const std::int32_t row = sig_row[s];
                            if (row >= 0 &&
                                row_nonres[static_cast<std::size_t>(
                                    row)])
                                non_resident_bytes += sig[s].bytes;
                        }
                    }
                    comm += options_.paramAffinityWeight * 2.0 *
                            non_resident_bytes /
                            topo_.config()
                                .interIslandCollective.bandwidth;

                    if (cfg.tp > 1) {
                        const std::uint32_t first =
                            pos_island[win_pos.front()];
                        bool spans = false;
                        for (std::uint32_t p : win_pos) {
                            if (pos_island[p] != first) {
                                spans = true;
                                break;
                            }
                        }
                        if (spans)
                            comm += island_penalty;
                    }

                    consider(best, max_total, comm, extras_base + ei,
                             -1, ei);
                };

                // Chunk the candidate space into sweep tasks. Chunk
                // size only balances lanes and sets the pruning
                // granularity; any chunking yields the same winner
                // (the ordinal tie-break is global, and pruning is
                // winner-preserving per chunk). The serial sweep is
                // chunked too — that is what gives pruning its
                // skippable units — with a floor of 4n so the
                // per-chunk deque warm-up (n - 1 positions) stays
                // under a quarter of the chunk.
                const std::size_t sweep_work =
                    total_candidates *
                    (sig.size() + inflows.size() + 4);
                const bool sweep_parallel =
                    use_pool && sweep_work >= kMinParallelWork &&
                    total_candidates > 1;
                const std::size_t chunk_floor = std::max<std::size_t>(
                    kMinSweepChunk, 4 * static_cast<std::size_t>(n));
                const std::size_t chunk =
                    sweep_parallel
                        ? std::max(chunk_floor,
                                   total_candidates /
                                       (static_cast<std::size_t>(
                                            pool_->threads()) *
                                        4))
                        : chunk_floor;
                sweep_tasks.clear();
                for (std::size_t b = 0; b < num_bands; ++b) {
                    const std::size_t W = band_states[b].numWindows;
                    for (std::size_t lo = 0; lo < W; lo += chunk)
                        sweep_tasks.push_back(
                            {static_cast<std::int32_t>(b), lo,
                             std::min(lo + chunk, W)});
                }
                for (std::size_t lo = 0;
                     lo < cand_windows.extras.size(); lo += chunk)
                    sweep_tasks.push_back(
                        {-1, lo,
                         std::min(lo + chunk,
                                  cand_windows.extras.size())});

                auto run_task = [&](const SweepTask &t,
                                    Candidate &best,
                                    DeviceSet &win_scratch,
                                    std::vector<std::size_t> &dq,
                                    std::vector<std::size_t> &row_ptr,
                                    std::vector<char> &row_nonres) {
                    if (t.band >= 0)
                        score_band_range(
                            static_cast<std::size_t>(t.band), t.lo,
                            t.hi, best, win_scratch, dq, row_ptr,
                            row_nonres);
                    else
                        for (std::size_t ei = t.lo; ei < t.hi; ++ei)
                            score_extra(ei, best, win_scratch,
                                        row_nonres);
                };

                Candidate best;
                if (sweep_parallel && sweep_tasks.size() > 1) {
                    best = pool_->parallelReduce<Candidate>(
                        0, sweep_tasks.size(), 1,
                        [&](Candidate &acc, std::size_t lo,
                            std::size_t hi) {
                            DeviceSet win_scratch;
                            std::vector<std::size_t> dq;
                            std::vector<std::size_t> row_ptr;
                            std::vector<char> row_nonres;
                            for (std::size_t t = lo; t < hi; ++t)
                                run_task(sweep_tasks[t], acc,
                                         win_scratch, dq, row_ptr,
                                         row_nonres);
                        },
                        [](Candidate &out, const Candidate &c) {
                            if (betterThan(c, out))
                                out = c;
                        });
                } else {
                    for (const SweepTask &t : sweep_tasks)
                        run_task(t, best, win_buf, deque_scratch,
                                 rowptr_scratch, rownonres_scratch);
                }

                if (!best.found()) {
                    if (fail_wave != nullptr)
                        *fail_wave = wi;
                    return false; // nothing fits: trigger fallback
                }
                best_comm = best.comm;
                best_win.resize(n);
                win_positions.clear();
                if (best.band >= 0) {
                    const auto &band =
                        cand_windows.bands[static_cast<std::size_t>(
                            best.band)];
                    for (std::uint32_t j = 0; j < n; ++j) {
                        win_positions.push_back(band[best.start + j]);
                        best_win[j] = free[band[best.start + j]];
                    }
                } else {
                    const auto &win_pos =
                        cand_windows.extras[best.start];
                    for (std::uint32_t j = 0; j < n; ++j) {
                        win_positions.push_back(win_pos[j]);
                        best_win[j] = free[win_pos[j]];
                    }
                }
            }

            // Reverse-index upkeep, serially before the commit
            // mutates any device: a key gains exactly the window
            // devices that do not yet hold it (probed against the
            // still-pre-commit flat mirror). uniq_keys is
            // deduplicated, so no device is appended twice for one
            // key, keeping holder lists exact.
            for (std::int64_t key : uniq_keys) {
                std::vector<DeviceId> *hv = nullptr;
                for (DeviceId d : best_win) {
                    if (state.findFlat(d, key) != nullptr)
                        continue;
                    if (hv == nullptr)
                        hv = &state.holders[key];
                    hv->push_back(d);
                }
            }

            // Commit the chosen window. Devices are committed
            // independently (each lane touches only its own device's
            // map, flat mirror, and dirty bit), so large entries
            // parallelize; order is irrelevant to the resulting
            // state.
            auto commit_device = [&](std::size_t j) {
                const DeviceId d = best_win[j];
                state.activations[d] += act_share;
                for (const auto &[key, share] : commit_keys) {
                    auto [it, inserted] =
                        state.params[d].emplace(key, share);
                    if (!inserted && share > it->second)
                        it->second = share;
                }
                state.mergeFlat(d, uniq_keys, uniq_vals);
                state.total_dirty[d] = 1;
            };
            maybeParallelFor(pool_,
                             best_win.size() * (sig.size() + 1) >=
                                 kMinParallelWork,
                             0, best_win.size(), 8, commit_device);

            // Attribute the committed flows to intra- vs
            // inter-island fabric, shard by shard (see
            // interIslandShardFraction), priced with flowTime.
            double entry_inter = 0;
            for (std::size_t k = 0; k < inflows.size(); ++k) {
                const auto &[bytes, src] = inflows[k];
                double t;
                if (!exact_comm && !win_positions.empty()) {
                    // Same class machinery the sweep scored with,
                    // which equals flowTime bit for bit on uniform
                    // fabrics: zero for empty flows and src == dst
                    // (flowTime's own early-outs), otherwise the
                    // flow time of the fastest class present in the
                    // window. O(|window|): no island-presence pass
                    // over the source set as the oracle makes.
                    if (bytes <= 0 || *src == best_win) {
                        t = 0;
                    } else {
                        const InflowCtx &ctx = inflow_ctx[k];
                        int best_rank = kNumLinkClasses - 1;
                        for (std::uint32_t p : win_positions) {
                            const int r = rank_of_class[ctx.cls[p]];
                            if (r < best_rank)
                                best_rank = r;
                            if (best_rank == 0)
                                break;
                        }
                        t = ctx.flowByClass[class_by_bw[best_rank]];
                    }
                } else {
                    t = coll.flowTime(bytes, *src, best_win);
                }
                if (t > 0)
                    entry_inter +=
                        t * interIslandShardFraction(
                                topo_, *src, best_win,
                                island_scratch);
            }
            if (cfg.tp > 1 && !topo_.withinOneIsland(best_win))
                entry_inter += island_penalty;
            result.interIslandCommSeconds += entry_inter;

            if (log != nullptr)
                log->push_back({static_cast<std::uint32_t>(wi),
                                static_cast<std::uint32_t>(idx),
                                best_comm, entry_inter});

            e.devices = best_win;
            state.lastSlice[e.metaOp] = std::move(best_win);
            result.estimatedCommSeconds += best_comm;
            if (options_.strategy != PlacementStrategy::Sequential) {
                // Remove the committed devices from the free list
                // (single compaction pass; general windows need not
                // be contiguous runs of it).
                const DeviceSet &win = state.lastSlice[e.metaOp];
                std::size_t out = 0, take = 0;
                for (std::size_t pos = 0; pos < free.size(); ++pos) {
                    if (take < win.size() && free[pos] == win[take]) {
                        ++take;
                        continue;
                    }
                    free[out++] = free[pos];
                }
                free.resize(out);
            }
        }
    }

    result.peakBytes.assign(num_devices, 0.0);
    for (std::uint32_t d = 0; d < num_devices; ++d)
        result.peakBytes[d] = state.deviceTotal(d);
    return true;
}

} // namespace spindle
