#include "planner/window_generator.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace spindle {

namespace {

/** ContiguousRuns: one band over every free position. */
void
contiguousRuns(std::size_t F, CandidateWindows &out)
{
    std::vector<std::uint32_t> &band = out.appendBand();
    band.resize(F);
    std::iota(band.begin(), band.end(), 0u);
}

using Variant = CandidateWindows::CatchAllScratch::Variant;

/** Merge the first @p take_a of @p a with the first @p take_b of
 *  @p b into @p win as one ascending position list. */
void
mergedPrefix(const std::vector<std::uint32_t> &a, std::size_t take_a,
             const std::vector<std::uint32_t> &b, std::size_t take_b,
             std::vector<std::uint32_t> &win)
{
    win.reserve(take_a + take_b);
    std::merge(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(take_a),
               b.begin(), b.begin() + static_cast<std::ptrdiff_t>(take_b),
               std::back_inserter(win));
}

/**
 * Step 3 of islandAware(), the greedy catch-all (see
 * WindowPolicy::IslandAware), for n above every island's free count.
 * @p isl holds the free positions per island and cw.catchAll.byFirst
 * the non-empty islands by first free position.
 */
void
greedyCatchAll(const std::vector<std::vector<std::uint32_t>> &isl,
               std::uint32_t n, CandidateWindows &cw)
{
    CandidateWindows::CatchAllScratch &ws = cw.catchAll;
    const auto size = [&](std::uint32_t k) {
        return static_cast<std::uint32_t>(isl[k].size());
    };
    std::vector<std::uint32_t> &order = ws.order;
    order = ws.byFirst;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return size(a) != size(b) ? size(a) > size(b) : a < b;
              });
    const std::size_t m = order.size();
    ws.rank.resize(isl.size());
    ws.prefix.resize(m + 1);
    ws.prefix[0] = 0;
    for (std::size_t j = 0; j < m; ++j) {
        ws.rank[order[j]] = static_cast<std::uint32_t>(j);
        ws.prefix[j + 1] = ws.prefix[j] + size(order[j]);
    }
    // A fill of `budget` positions takes fill-order islands [0, cut)
    // whole, cut being the last index whose prefix sum still fits the
    // budget, and the rest from island `cut`.
    const auto fill = [&](std::uint32_t start, std::uint32_t budget) {
        const auto cut = static_cast<std::uint32_t>(
            std::upper_bound(ws.prefix.begin(), ws.prefix.end(), budget) -
            ws.prefix.begin() - 1);
        return Variant{start, cut, budget - ws.prefix[cut]};
    };

    // Starts inside the base's whole prefix [0, base.cut) reproduce
    // the base window. Any later start s (every island has fewer than
    // n free) fills n - |s| from the order before s, so it takes all
    // of s, which the base does not, and stops no later than the
    // base: it stays distinct from the base and from every other
    // start. s never lands on its own cut island (its fill stops
    // before s or at the base's cut, which precedes s).
    ws.variants.clear();
    const Variant base = fill(Variant::kNoStart, n);
    ws.variants.push_back(base);
    for (std::size_t j = base.cut; j < m; ++j)
        ws.variants.push_back(fill(order[j], n - size(order[j])));

    const auto take = [&](const Variant &v, std::uint32_t k) {
        const std::uint32_t r = ws.rank[k];
        if (k == v.start || r < v.cut)
            return size(k);
        return r == v.cut ? v.rest : 0u;
    };
    // Lexicographic order of the ascending position lists: the
    // smallest position in the symmetric difference decides, and it
    // belongs to the variant taking more of its island. Takes can
    // differ only on the fill-order span between the two cuts and on
    // the two starts.
    const auto precedes = [&](const Variant &a, const Variant &b) {
        std::uint32_t first_diff = ~0u;
        bool a_first = false;
        const auto probe = [&](std::uint32_t k) {
            const std::uint32_t ta = take(a, k), tb = take(b, k);
            if (ta == tb)
                return;
            const std::uint32_t p = isl[k][std::min(ta, tb)];
            if (p < first_diff) {
                first_diff = p;
                a_first = ta > tb;
            }
        };
        const std::size_t hi = std::min<std::size_t>(
            std::max(a.cut, b.cut) + std::size_t{1}, m);
        for (std::size_t r = std::min(a.cut, b.cut); r < hi; ++r)
            probe(order[r]);
        if (a.start != Variant::kNoStart)
            probe(a.start);
        if (b.start != Variant::kNoStart)
            probe(b.start);
        return a_first;
    };
    std::sort(ws.variants.begin(), ws.variants.end(), precedes);

    // Each window: the islands' position prefixes in order of first
    // free position. That concatenation already ascends unless two
    // islands interleave; then only the overlapping tail is merged.
    for (const Variant &v : ws.variants) {
        std::vector<std::uint32_t> &win = cw.appendExtra();
        win.reserve(n);
        for (std::uint32_t k : ws.byFirst) {
            const std::uint32_t t = take(v, k);
            if (t == 0)
                continue;
            const auto mid = win.insert(win.end(), isl[k].begin(),
                                        isl[k].begin() + t);
            if (mid != win.begin() && *(mid - 1) > *mid)
                std::inplace_merge(std::upper_bound(win.begin(), mid, *mid),
                                   mid, win.end());
        }
    }
}

/** IslandAware: per-island bands, pair unions, greedy catch-all. */
void
islandAware(const ClusterTopology &topo, const DeviceSet &free,
            std::uint32_t n, CandidateWindows &out)
{
    const std::size_t F = free.size();

    // Free positions per island, island-id order. Positions ascend
    // within each island because the free list ascends. Built in the
    // caller-owned scratch so repeated sweeps reuse capacity instead
    // of allocating one list set per entry. (scratch may be larger
    // than num_isl from an earlier call; only [0, num_isl) is live.)
    // The same scan lists the non-empty islands by first free
    // position, for the catch-all.
    const std::size_t num_isl = topo.numIslands();
    out.prepareScratch(num_isl);
    std::vector<std::vector<std::uint32_t>> &isl = out.scratch;
    std::vector<std::uint32_t> &by_first = out.catchAll.byFirst;
    by_first.clear();
    for (std::size_t pos = 0; pos < F; ++pos) {
        const std::uint32_t k = topo.islandOf(free[pos]);
        if (isl[k].empty())
            by_first.push_back(k);
        isl[k].push_back(static_cast<std::uint32_t>(pos));
    }

    // 1. Per-island bands: sliding runs that never leave an island,
    //    whatever the device numbering looks like.
    std::size_t largest = 0, second = 0;
    for (std::size_t k = 0; k < num_isl; ++k) {
        const std::size_t c = isl[k].size();
        if (c > largest) {
            second = largest;
            largest = c;
        } else if (c > second) {
            second = c;
        }
        if (c >= n)
            out.appendBand() = isl[k];
    }

    // 2. Deliberate cross-island unions for entries at least one of
    //    the pair cannot host alone: per unordered island pair, up
    //    to three splits (lean on the first island, balance, lean on
    //    the second), each taking the lowest-id free devices of its
    //    island. Unordered iteration keeps the (i, j) and (j, i)
    //    splits from being emitted — and scored — twice. No pair
    //    hosts n beyond the two largest islands combined.
    const bool pairs_can_host = n >= 2 && n <= largest + second;
    for (std::size_t i = 0; pairs_can_host && i + 1 < num_isl; ++i) {
        const std::size_t ci = isl[i].size();
        if (ci == 0)
            continue;
        for (std::size_t j = i + 1; j < num_isl; ++j) {
            const std::size_t cj = isl[j].size();
            if (cj == 0 || ci + cj < n)
                continue;
            if (ci >= n && cj >= n)
                continue; // both host alone: their bands cover it
            // take_i ranges over [max(1, n - cj), min(ci, n - 1)].
            const std::size_t lo =
                n > cj ? static_cast<std::size_t>(n - cj) : 1;
            const std::size_t hi =
                std::min(ci, static_cast<std::size_t>(n - 1));
            if (lo > hi)
                continue;
            const std::size_t takes[3] = {
                hi,                                     // i-heavy
                std::clamp<std::size_t>(n / 2, lo, hi), // balanced
                lo,                                     // j-heavy
            };
            std::size_t prev = num_isl + n; // never a valid take
            for (std::size_t take_i : takes) {
                if (take_i == prev)
                    continue; // dedupe equal splits
                prev = take_i;
                mergedPrefix(isl[i], take_i, isl[j], n - take_i,
                             out.appendExtra());
            }
        }
    }

    // 3. Greedy catch-alls when the entry outgrows every island.
    //    Several variants keep placement — and in particular the
    //    memory-first fallback — from hinging on a single candidate
    //    whose devices happen to be loaded.
    if (largest < n)
        greedyCatchAll(isl, n, out);
}

} // namespace

void
generateWindows(WindowPolicy policy, const ClusterTopology &topo,
                const DeviceSet &free, std::uint32_t n,
                CandidateWindows &out)
{
    out.clear();
    panicIf(n == 0 || n > free.size(),
            "generateWindows: entry size exceeds free devices");
    switch (policy) {
      case WindowPolicy::ContiguousRuns:
        return contiguousRuns(free.size(), out);
      case WindowPolicy::IslandAware:
        return islandAware(topo, free, n, out);
    }
    panic("generateWindows: unknown policy");
}

} // namespace spindle
