#include "planner/wavefront_scheduler.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/math_util.h"

namespace spindle {

namespace {

/**
 * Mutable scheduling state of one MetaOp within a level.
 *
 * The tuples are sorted once (largest n first) and consumed through
 * an index cursor — no per-wave container churn. The estimated
 * remaining execution time is cached and refreshed only when the
 * tuple state mutates (a slice drains or an extension bumps the
 * front allocation), so the scheduler's extension loop reads it in
 * O(1) instead of re-summing per comparison.
 */
struct MetaOpState
{
    MetaOpId metaOp = -1;
    std::vector<AslTuple> tuples; ///< once-sorted, largest n first
    std::size_t cursor = 0;       ///< first unconsumed tuple
    std::int64_t op_cursor = 0;   ///< member ops already scheduled
    double remaining = 0;         ///< cached remaining exec time

    bool done() const { return cursor == tuples.size(); }

    AslTuple &front() { return tuples[cursor]; }
    const AslTuple &front() const { return tuples[cursor]; }

    /** Recompute the cached remaining time from the live tuples —
     *  the same left-to-right sum the uncached code summed per
     *  query, so cached reads are bit-identical. */
    void
    refreshRemaining(const ScalingCurve &curve)
    {
        double total = 0;
        for (std::size_t i = cursor; i < tuples.size(); ++i)
            total += curve.timeAt(tuples[i].n) *
                     static_cast<double>(tuples[i].l);
        remaining = total;
    }
};

/** Candidate-set key: largest front allocation first, MetaOp id as
 *  the deterministic tie-break (matches the former per-wave sort). */
struct CandidateKey
{
    std::uint32_t n = 0;
    MetaOpId metaOp = -1;
    std::size_t index = 0; ///< position in the states vector

    bool
    operator<(const CandidateKey &other) const
    {
        if (n != other.n)
            return n > other.n;
        return metaOp < other.metaOp;
    }
};

} // namespace

WavefrontScheduler::WavefrontScheduler(const MetaGraph &graph,
                                       const std::vector<ScalingCurve> &curves,
                                       std::uint32_t num_devices,
                                       SchedulerOptions options)
    : graph_(graph), curves_(curves), num_devices_(num_devices),
      options_(options)
{
    fatalIf(num_devices_ == 0, "WavefrontScheduler: empty cluster");
    fatalIf(curves_.size() != graph_.numMetaOps(),
            "WavefrontScheduler: one curve per MetaOp required");
}

double
WavefrontScheduler::scheduleLevel(const LevelAllocation &alloc,
                                  double t_start,
                                  std::vector<Wave> &waves) const
{
    // Request-reachable (a malformed workload can contract to an
    // empty MetaLevel), so it is a user error, not an invariant:
    // fatal() lets a RecoverableScope boundary (PlanService) turn it
    // into a structured PlanError instead of process death.
    fatalIf(alloc.metaOps.empty(),
            "scheduleLevel: empty level allocation (no MetaOps)");
    panicIf(alloc.plans.size() != alloc.metaOps.size(),
            "scheduleLevel: allocation plans misaligned with MetaOps");

    // Initialize per-MetaOp state, tuples largest-n first so early
    // waves occupy as many devices as possible.
    std::vector<MetaOpState> states;
    states.reserve(alloc.metaOps.size());
    for (std::size_t i = 0; i < alloc.metaOps.size(); ++i) {
        MetaOpState st;
        st.metaOp = alloc.metaOps[i];
        st.tuples = alloc.plans[i].tuples;
        std::sort(st.tuples.begin(), st.tuples.end(),
                  [](const AslTuple &a, const AslTuple &b) {
                      return a.n > b.n;
                  });
        for (const AslTuple &t : st.tuples)
            panicIf(t.n == 0 || t.n > num_devices_,
                    "scheduleLevel: tuple allocation out of range");
        st.refreshRemaining(curves_[st.metaOp]);
        states.push_back(std::move(st));
    }

    double t_current = t_start;
    std::int32_t level = graph_.metaOp(alloc.metaOps.front()).level;

    // Unfinished states, kept sorted by (front n desc, MetaOp asc).
    // Replaces the former rebuild+sort of the full candidate vector
    // every wave: only states a wave actually mutates re-enter.
    std::set<CandidateKey> candidates;
    for (std::size_t i = 0; i < states.size(); ++i) {
        if (states[i].done())
            continue;
        const bool inserted =
            candidates
                .insert({states[i].front().n, states[i].metaOp, i})
                .second;
        // Keys compare on (n, metaOp); a duplicate MetaOp would
        // silently collapse into one candidate, so reject it here.
        panicIf(!inserted,
                "scheduleLevel: duplicate MetaOp in level allocation");
    }

    while (!candidates.empty()) {
        // -- Step 1: propose the candidate set. Consider the front
        // tuple of every unfinished MetaOp (same-MetaOp tuples may
        // not run concurrently, Eq. 6) and greedily pack the largest
        // allocations first.
        std::vector<std::size_t> selected;
        std::uint32_t used = 0;
        for (const CandidateKey &key : candidates) {
            if (used + key.n <= num_devices_) {
                selected.push_back(key.index);
                used += key.n;
            }
        }
        panicIf(selected.empty(), "scheduleLevel: nothing schedulable");

        // Selected states are about to mutate (extension and/or
        // draining); pull them out and reinsert survivors after.
        for (std::size_t idx : selected)
            candidates.erase({states[idx].front().n,
                              states[idx].metaOp, idx});

        // -- Step 2: extend allocated resources if devices idle,
        // prioritizing MetaOps with the largest remaining work.
        if (options_.extendResources) {
            while (used < num_devices_) {
                std::size_t best = states.size();
                double best_remaining = -1;
                std::uint32_t best_next = 0;
                for (std::size_t idx : selected) {
                    const MetaOpState &st = states[idx];
                    const ScalingCurve &curve = curves_[st.metaOp];
                    std::uint32_t n = st.front().n;
                    // Next valid allocation within the idle budget.
                    // Valid grids ascend, so the first candidate
                    // above n decides feasibility.
                    std::uint32_t next = curve.nextValidAbove(n);
                    if (next == 0 || next - n > num_devices_ - used)
                        continue;
                    if (st.remaining > best_remaining) {
                        best_remaining = st.remaining;
                        best = idx;
                        best_next = next;
                    }
                }
                if (best == states.size())
                    break; // no extensible tuple
                used += best_next - states[best].front().n;
                states[best].front().n = best_next;
                states[best].refreshRemaining(curves_[states[best].metaOp]);
            }
        }

        // -- Step 3: align time spans w.r.t. the tuple with the
        // shortest full execution time; slice the others.
        double t_wave = std::numeric_limits<double>::infinity();
        for (std::size_t idx : selected) {
            const AslTuple &t = states[idx].front();
            double full = curves_[states[idx].metaOp].timeAt(t.n) *
                          static_cast<double>(t.l);
            t_wave = std::min(t_wave, full);
        }

        // -- Step 4: conclude the wave.
        Wave wave;
        wave.index = static_cast<std::int32_t>(waves.size());
        wave.level = level;
        wave.start = t_current;
        for (std::size_t idx : selected) {
            MetaOpState &st = states[idx];
            AslTuple &front = st.front();
            const double per_op = curves_[st.metaOp].timeAt(front.n);
            const std::int64_t ops =
                waveSliceOps(t_wave, per_op, front.l);

            WaveEntry entry;
            entry.metaOp = st.metaOp;
            entry.n = front.n;
            entry.opBegin = st.op_cursor;
            entry.numOps = ops;
            entry.duration = per_op * static_cast<double>(ops);
            wave.entries.push_back(std::move(entry));

            st.op_cursor += ops;
            front.l -= ops;
            if (front.l == 0)
                ++st.cursor;
            st.refreshRemaining(curves_[st.metaOp]);
            if (!st.done())
                candidates.insert({st.front().n, st.metaOp, idx});
            wave.duration = std::max(wave.duration,
                                     wave.entries.back().duration);
        }
        t_current += wave.duration;
        waves.push_back(std::move(wave));
    }
    return t_current;
}

std::vector<Wave>
WavefrontScheduler::scheduleAll(
    const std::vector<LevelAllocation> &allocs) const
{
    std::vector<Wave> waves;
    double t = 0;
    for (const LevelAllocation &alloc : allocs)
        t = scheduleLevel(alloc, t, waves);
    return waves;
}

} // namespace spindle
