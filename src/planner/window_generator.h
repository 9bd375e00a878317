/**
 * @file
 * Placement-window generation (paper §3.5).
 *
 * Device placement scores *candidate windows* — device sets an entry
 * could land on. What those candidates are used to be welded into
 * the placer's scoring loop (every contiguous run of the free-device
 * list), which coupled window shape to device numbering: on a
 * cluster whose ids interleave islands, every "contiguous" window
 * straddled the fabric. This layer makes the window shape a
 * WindowPolicy the placer picks, out of a closed set.
 *
 * generateWindows() emits two kinds of candidates over the
 * (ascending) free-device list:
 *
 *  - **bands** — ordered sequences of free-list positions; every
 *    length-n contiguous subsequence of a band is a candidate
 *    window. Bands are what keeps the incremental scoring state of
 *    the placer alive: per-band prefix counts (link classes,
 *    parameter residency, island changes) and a sliding-window
 *    maximum over per-device memory loads score each window in O(1)
 *    after an O(band) setup.
 *  - **extras** — individual explicit windows (each an ascending
 *    position list of exactly n entries), for deliberate shapes
 *    that are not runs of any band, e.g. cross-island unions.
 *
 * Both policies hold the placer's contract by construction: every
 * band and extra ascends strictly, every position is below the
 * free-list size, and every extra has exactly n positions
 * (planner_equivalence_test checks it over random free lists).
 *
 * Extras order is part of the byte-identity contract: the placer
 * scans candidates in order (bands, then `extras` by index) and keeps
 * the first of equally scored ones. Emitting the same windows in
 * another order can commit a different plan.
 */

#ifndef SPINDLE_PLANNER_WINDOW_GENERATOR_H
#define SPINDLE_PLANNER_WINDOW_GENERATOR_H

#include <vector>

#include "hardware/topology.h"

namespace spindle {

/**
 * Candidate windows for one entry. Positions index into the free
 * list; all position sequences ascend, so every realized window is
 * automatically a canonical DeviceSet.
 *
 * The struct is designed to be reused across entries without
 * allocating: clear() recycles the inner vectors into a pool instead
 * of freeing them, and generateWindows() obtains recycled (empty,
 * capacity retained) vectors through appendBand()/appendExtra(). At
 * 4096 devices the placer generates windows once per wave entry, so
 * per-entry band emission must not hit the allocator in steady
 * state.
 */
struct CandidateWindows
{
    /** Ascending position sequences; each length-n contiguous
     *  subsequence is a candidate (see file comment). Ascending
     *  order is a contract: it keeps realized windows canonical and
     *  lets the placer binary-search a band by device id. */
    std::vector<std::vector<std::uint32_t>> bands;

    /** Explicit windows: ascending positions, exactly n each. */
    std::vector<std::vector<std::uint32_t>> extras;

    /**
     * Generation workspace (IslandAware's per-island position
     * lists). generateWindows() keeps no state of its own, so
     * several planners may call it concurrently; the caller's
     * CandidateWindows is the only per-sweep mutable state.
     */
    std::vector<std::vector<std::uint32_t>> scratch;

    /** IslandAware's catch-all workspace (see WindowPolicy),
     *  caller-owned for the same reason as scratch. */
    struct CatchAllScratch
    {
        /** One variant by its island takes: island `start` whole
         *  (kNoStart for the base variant), the first `cut` islands
         *  of the fill order whole, and the first `rest` positions
         *  of fill-order island `cut`. */
        struct Variant
        {
            static constexpr std::uint32_t kNoStart = ~0u;
            std::uint32_t start = kNoStart;
            std::uint32_t cut = 0;
            std::uint32_t rest = 0;
        };

        std::vector<std::uint32_t> byFirst; ///< islands by first free position
        std::vector<std::uint32_t> order;   ///< fill order
        std::vector<std::uint32_t> rank;    ///< island -> index in order
        std::vector<std::uint32_t> prefix;  ///< fill-order prefix sums
        std::vector<Variant> variants;
    } catchAll;

    /** Recycle bands and extras into the pool (capacity kept). */
    void
    clear()
    {
        recycle(bands);
        recycle(extras);
    }

    /** Append a recycled empty vector to bands and return it. */
    std::vector<std::uint32_t> &
    appendBand()
    {
        return append(bands);
    }

    /** Append a recycled empty vector to extras and return it. */
    std::vector<std::uint32_t> &
    appendExtra()
    {
        return append(extras);
    }

    /** Ensure scratch holds >= @p count vectors, the first @p count
     *  of them empty (capacity kept). */
    void
    prepareScratch(std::size_t count)
    {
        if (scratch.size() < count)
            scratch.resize(count);
        for (std::size_t i = 0; i < count; ++i)
            scratch[i].clear();
    }

  private:
    void
    recycle(std::vector<std::vector<std::uint32_t>> &from)
    {
        for (auto &v : from)
            pool_.push_back(std::move(v));
        from.clear();
    }

    std::vector<std::uint32_t> &
    append(std::vector<std::vector<std::uint32_t>> &to)
    {
        if (pool_.empty()) {
            to.emplace_back();
        } else {
            pool_.back().clear();
            to.push_back(std::move(pool_.back()));
            pool_.pop_back();
        }
        return to.back();
    }

    /** Retired inner vectors, capacity intact. */
    std::vector<std::vector<std::uint32_t>> pool_;
};

/** Built-in window shapes, a closed set (PlacementOptions::windows). */
enum class WindowPolicy : std::uint8_t
{
    /** One band covering the whole free list: every contiguous run,
     *  the historical candidate set, proven bit-identical to the
     *  pre-refactor placer by planner_equivalence_test.
     *  Numbering-coupled. */
    ContiguousRuns,

    /**
     * One band per island (runs never cross an island by accident,
     * whatever the device numbering) plus deliberate cross-island
     * unions. Every extra takes the lowest free positions of each
     * island it touches. Extras are emitted in two groups:
     *
     *  1. **Pair unions**, for n that at least one island of the
     *     pair cannot host alone but the two together can: per
     *     unordered island pair (i < j), the i-heavy, balanced and
     *     j-heavy splits, equal splits once. Skipped outright when n
     *     exceeds the two largest free counts combined, since then
     *     no pair can host.
     *  2. **Greedy catch-all**, when n exceeds every island's free
     *     count. The fill order lists the non-empty islands by free
     *     count, descending, ties by island id. The variant started
     *     at island s takes all of s, then fills from the fill order
     *     (skipping s) until it holds n devices. There is one
     *     variant per non-empty island, with duplicates removed:
     *     every start in the fully taken prefix of the *base*
     *     variant (the one started at the head of the fill order)
     *     yields exactly the base window, and every other start
     *     yields a window of its own. The survivors are emitted in
     *     ascending lexicographic order of their position lists.
     *
     * The catch-all never sorts positions or compares windows: a
     * variant is kept as its island takes, two variants compare by
     * the smallest position in their symmetric difference (which
     * belongs to the one taking more of that island), and each
     * window is the concatenation of its islands' position prefixes
     * in order of first free position, merged only where islands
     * interleave.
     */
    IslandAware,
};

/**
 * Emit the @p policy candidate windows of an entry needing @p n
 * devices (0 < n <= free.size()) over the ascending free-device list
 * @p free into @p out (cleared first). At least one candidate is
 * emitted.
 */
void generateWindows(WindowPolicy policy, const ClusterTopology &topo,
                     const DeviceSet &free, std::uint32_t n,
                     CandidateWindows &out);

} // namespace spindle

#endif // SPINDLE_PLANNER_WINDOW_GENERATOR_H
