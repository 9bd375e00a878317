/**
 * @file
 * Frozen pre-optimization planner reference, shared by the tests that
 * check the planner against it (planner_equivalence_test,
 * placement_test).
 *
 * The wavefront scheduler and device placement below are the
 * original, brute-force implementations: placement scores every
 * candidate window of every entry (no incremental state, no band
 * pruning). reference::plan() runs the full pipeline with them
 * substituted; the optimized planner must reproduce it bit for bit.
 * If an intentional scoring change ever lands, these copies must be
 * updated alongside it (and the change called out as plan-affecting).
 */

#ifndef SPINDLE_TESTS_REFERENCE_PLANNER_H
#define SPINDLE_TESTS_REFERENCE_PLANNER_H

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/math_util.h"
#include "planner/planner.h"

namespace spindle::reference {


inline std::int64_t
paramDedupKey(const OperatorDesc &op)
{
    if (op.paramKey != kNoParam)
        return op.paramKey;
    return -(static_cast<std::int64_t>(op.id) + 2);
}

/** Mutable scheduling state of one MetaOp within a level. */
struct MetaOpState
{
    MetaOpId metaOp = -1;
    std::deque<AslTuple> tuples; ///< remaining, largest n first
    std::int64_t op_cursor = 0;  ///< member ops already scheduled

    bool done() const { return tuples.empty(); }
};

/** Remaining estimated execution time across all tuples. */
inline double
remainingTime(const MetaOpState &st, const ScalingCurve &curve)
{
    double total = 0;
    for (const AslTuple &t : st.tuples)
        total += curve.timeAt(t.n) * static_cast<double>(t.l);
    return total;
}

inline double
scheduleLevel(const MetaGraph &graph,
              const std::vector<ScalingCurve> &curves,
              std::uint32_t num_devices, const SchedulerOptions &options,
              const LevelAllocation &alloc, double t_start,
              std::vector<Wave> &waves)
{
    std::vector<MetaOpState> states;
    states.reserve(alloc.metaOps.size());
    for (std::size_t i = 0; i < alloc.metaOps.size(); ++i) {
        MetaOpState st;
        st.metaOp = alloc.metaOps[i];
        std::vector<AslTuple> tuples = alloc.plans[i].tuples;
        std::sort(tuples.begin(), tuples.end(),
                  [](const AslTuple &a, const AslTuple &b) {
                      return a.n > b.n;
                  });
        for (const AslTuple &t : tuples) {
            panicIf(t.n == 0 || t.n > num_devices,
                    "scheduleLevel: tuple allocation out of range");
            st.tuples.push_back(t);
        }
        states.push_back(std::move(st));
    }

    double t_current = t_start;
    std::int32_t level = graph.metaOp(alloc.metaOps.front()).level;

    auto any_remaining = [&] {
        return std::any_of(states.begin(), states.end(),
                           [](const MetaOpState &s) { return !s.done(); });
    };

    while (any_remaining()) {
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < states.size(); ++i)
            if (!states[i].done())
                order.push_back(i);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (states[a].tuples.front().n !=
                          states[b].tuples.front().n)
                          return states[a].tuples.front().n >
                                 states[b].tuples.front().n;
                      return states[a].metaOp < states[b].metaOp;
                  });
        std::vector<std::size_t> selected;
        std::uint32_t used = 0;
        for (std::size_t idx : order) {
            std::uint32_t n = states[idx].tuples.front().n;
            if (used + n <= num_devices) {
                selected.push_back(idx);
                used += n;
            }
        }
        panicIf(selected.empty(), "scheduleLevel: nothing schedulable");

        if (options.extendResources) {
            while (used < num_devices) {
                std::size_t best = states.size();
                double best_remaining = -1;
                std::uint32_t best_next = 0;
                for (std::size_t idx : selected) {
                    const MetaOpState &st = states[idx];
                    const ScalingCurve &curve = curves[st.metaOp];
                    std::uint32_t n = st.tuples.front().n;
                    std::uint32_t next = 0;
                    for (std::uint32_t cand : curve.validNs()) {
                        if (cand > n && cand - n <= num_devices - used) {
                            next = cand;
                            break;
                        }
                    }
                    if (next == 0)
                        continue;
                    double rem = remainingTime(st, curve);
                    if (rem > best_remaining) {
                        best_remaining = rem;
                        best = idx;
                        best_next = next;
                    }
                }
                if (best == states.size())
                    break; // no extensible tuple
                used += best_next - states[best].tuples.front().n;
                states[best].tuples.front().n = best_next;
            }
        }

        double t_wave = std::numeric_limits<double>::infinity();
        for (std::size_t idx : selected) {
            const AslTuple &t = states[idx].tuples.front();
            double full = curves[states[idx].metaOp].timeAt(t.n) *
                          static_cast<double>(t.l);
            t_wave = std::min(t_wave, full);
        }

        Wave wave;
        wave.index = static_cast<std::int32_t>(waves.size());
        wave.level = level;
        wave.start = t_current;
        for (std::size_t idx : selected) {
            MetaOpState &st = states[idx];
            AslTuple &front = st.tuples.front();
            const double per_op = curves[st.metaOp].timeAt(front.n);
            std::int64_t ops = std::clamp<std::int64_t>(
                roundNearest(t_wave / per_op), 1, front.l);

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
                st.tuples.pop_front();
            wave.duration = std::max(wave.duration,
                                     wave.entries.back().duration);
        }
        t_current += wave.duration;
        waves.push_back(std::move(wave));
    }
    return t_current;
}

inline std::vector<Wave>
scheduleAll(const MetaGraph &graph,
            const std::vector<ScalingCurve> &curves,
            std::uint32_t num_devices, const SchedulerOptions &options,
            const std::vector<LevelAllocation> &allocs)
{
    std::vector<Wave> waves;
    double t = 0;
    for (const LevelAllocation &alloc : allocs)
        t = scheduleLevel(graph, curves, num_devices, options, alloc, t,
                          waves);
    annotateWaveReadiness(graph, waves);
    return waves;
}

/** Mutable state of one placement attempt. */
struct Attempt
{
    std::vector<std::unordered_map<std::int64_t, double>> params;
    std::vector<double> activations;
    std::map<MetaOpId, DeviceSet> lastSlice;

    double
    deviceTotal(DeviceId d) const
    {
        double total = activations[d];
        for (const auto &[key, bytes] : params[d])
            total += bytes;
        return total;
    }
};

inline void islandAwareGenerate(const ClusterTopology &topo,
                                const DeviceSet &free, std::uint32_t n,
                                CandidateWindows &out);

/** First-memory-first-wave value of a pure comm-first pass. */
inline constexpr std::size_t kNeverMemoryFirst =
    std::numeric_limits<std::size_t>::max();

/**
 * One placement pass over every wave: waves before
 * @p first_memory_wave are scored comm-first, the rest memory-first.
 * kNeverMemoryFirst is the comm-first pass, 0 the full memory-first
 * restart, and the first infeasible wave of a comm-first pass the
 * partial restart (its comm-first prefix is re-scored, not replayed,
 * and scores exactly as before). Returns false when an entry fits
 * nowhere, with that entry's wave in @p fail_wave.
 */
inline bool
tryPlace(const ClusterTopology &topo, const HardwareModel &hw,
         const MemoryModel &mem, const PlacementOptions &options,
         const MetaGraph &graph, ExecutionPlan &plan,
         std::size_t first_memory_wave, PlacementResult &result,
         std::size_t *fail_wave = nullptr)
{
    const std::uint32_t num_devices = plan.numDevices;
    const double capacity = topo.device().memoryBytes * kMemorySlack;
    const CollectiveModel &coll = hw.collectives();

    Attempt state;
    state.params.assign(num_devices, {});
    state.activations.assign(num_devices, 0.0);

    auto param_share = [&](const OperatorDesc &op, ParallelConfig cfg) {
        const double shard =
            op.paramBytes / cfg.tp /
            (mem.params().zeroShardParams ? cfg.dp : 1.0);
        const double opt =
            op.paramBytes / cfg.tp * kOptimizerFactor /
            (mem.params().zeroShardOptimizer ? cfg.dp : 1.0);
        return shard + opt;
    };

    std::uint32_t seq_cursor = 0;

    for (std::size_t wi = 0; wi < plan.waves.size(); ++wi) {
        Wave &wave = plan.waves[wi];
        const bool memory_first = wi >= first_memory_wave;
        DeviceSet free = topo.allDevices();
        free.resize(std::min<std::size_t>(free.size(), num_devices));

        std::vector<std::size_t> order(wave.entries.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        auto entry_volume = [&](const WaveEntry &e) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            double vol = m.activationBytes;
            if (e.opBegin == 0) {
                for (const MetaEdge &edge : graph.edges())
                    if (edge.dst == e.metaOp)
                        vol += edge.flowBytes;
            }
            return vol;
        };
        auto entry_memory = [&](const WaveEntry &e) {
            const MetaOp &m = graph.metaOp(e.metaOp);
            ParallelConfig cfg = hw.bestConfig(memberDesc(m), e.n);
            return mem.sliceBytesPerDevice(m, e.numOps, cfg);
        };
        if (options.strategy == PlacementStrategy::Spindle) {
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          double va, vb;
                          if (memory_first) {
                              va = entry_memory(wave.entries[a]);
                              vb = entry_memory(wave.entries[b]);
                          } else {
                              va = entry_volume(wave.entries[a]);
                              vb = entry_volume(wave.entries[b]);
                          }
                          if (va != vb)
                              return va > vb;
                          return a < b;
                      });
        }

        for (std::size_t idx : order) {
            WaveEntry &e = wave.entries[idx];
            const MetaOp &m = graph.metaOp(e.metaOp);
            const ParallelConfig cfg = hw.bestConfig(memberDesc(m), e.n);
            const double act_share =
                mem.activationBytesPerDevice(m, e.numOps, cfg);

            panicIf(free.size() < e.n,
                    "tryPlace: scheduler exceeded wave capacity");
            std::vector<DeviceSet> windows;
            if (options.strategy == PlacementStrategy::Sequential) {
                DeviceSet win;
                for (std::uint32_t k = 0; k < e.n; ++k)
                    win.push_back((seq_cursor + k) % num_devices);
                canonicalize(win);
                seq_cursor = (seq_cursor + e.n) % num_devices;
                windows.push_back(std::move(win));
            } else if (options.windows == WindowPolicy::IslandAware) {
                // Every length-n run of each band, then each extra,
                // in emission order: the sweep keeps the first of
                // equally scored windows.
                CandidateWindows cw;
                islandAwareGenerate(topo, free, e.n, cw);
                const auto realize = [&](const std::uint32_t *pos) {
                    DeviceSet win(e.n);
                    for (std::uint32_t j = 0; j < e.n; ++j)
                        win[j] = free[pos[j]];
                    windows.push_back(std::move(win));
                };
                for (const auto &band : cw.bands)
                    for (std::size_t s = 0; s + e.n <= band.size(); ++s)
                        realize(band.data() + s);
                for (const auto &extra : cw.extras)
                    realize(extra.data());
            } else {
                for (std::size_t s = 0; s + e.n <= free.size(); ++s)
                    windows.emplace_back(free.begin() + s,
                                         free.begin() + s + e.n);
            }

            double best_primary = std::numeric_limits<double>::infinity();
            double best_secondary = best_primary;
            std::size_t best_w = windows.size();
            double best_comm = 0;
            for (std::size_t w = 0; w < windows.size(); ++w) {
                const DeviceSet &win = windows[w];

                bool feasible = true;
                double peak_frac = 0;
                for (DeviceId d : win) {
                    double add = act_share;
                    for (std::int64_t i = 0; i < e.numOps; ++i) {
                        const OperatorDesc &op =
                            graph.base().op(m.ops[e.opBegin + i]);
                        const std::int64_t key = reference::paramDedupKey(op);
                        const double share = param_share(op, cfg);
                        auto it = state.params[d].find(key);
                        if (it == state.params[d].end())
                            add += share;
                        else if (share > it->second)
                            add += share - it->second;
                    }
                    const double total = state.deviceTotal(d) + add;
                    if (options.strategy == PlacementStrategy::Spindle &&
                        total > capacity) {
                        feasible = false;
                        break;
                    }
                    peak_frac = std::max(
                        peak_frac, total / topo.device().memoryBytes);
                }
                if (!feasible)
                    continue;

                double comm = 0;
                if (e.opBegin == 0) {
                    for (const MetaEdge &edge : graph.edges()) {
                        if (edge.dst != e.metaOp)
                            continue;
                        auto it = state.lastSlice.find(edge.src);
                        if (it != state.lastSlice.end())
                            comm += coll.flowTime(edge.flowBytes,
                                                  it->second, win);
                    }
                } else {
                    auto it = state.lastSlice.find(e.metaOp);
                    if (it != state.lastSlice.end())
                        comm += coll.flowTime(m.activationBytes,
                                              it->second, win);
                }

                double non_resident_bytes = 0;
                for (std::int64_t i = 0; i < e.numOps; ++i) {
                    const OperatorDesc &op =
                        graph.base().op(m.ops[e.opBegin + i]);
                    if (op.paramBytes <= 0)
                        continue;
                    const std::int64_t key = reference::paramDedupKey(op);
                    bool resident = false;
                    for (DeviceId d : win) {
                        if (state.params[d].count(key)) {
                            resident = true;
                            break;
                        }
                    }
                    if (!resident)
                        non_resident_bytes += op.paramBytes;
                }
                comm += 2.0 * non_resident_bytes /
                        topo.config().interIslandCollective.bandwidth;

                if (cfg.tp > 1 && !topo.withinOneIsland(win)) {
                    const double shard = m.activationBytes / cfg.dp;
                    const double slow = CollectiveModel::ringAllReduce(
                        shard, cfg.tp, topo.config().interIsland);
                    const double fast = CollectiveModel::ringAllReduce(
                        shard, cfg.tp, topo.config().intraIsland);
                    comm += 2.0 * static_cast<double>(e.numOps) *
                            (slow - fast);
                }

                const double mem_score =
                    options.memoryWeight * peak_frac;
                double primary, secondary;
                if (memory_first) {
                    primary = peak_frac;
                    secondary = comm;
                } else {
                    primary = comm + mem_score;
                    secondary = peak_frac;
                }
                if (primary < best_primary ||
                    (primary == best_primary &&
                     secondary < best_secondary)) {
                    best_primary = primary;
                    best_secondary = secondary;
                    best_w = w;
                    best_comm = comm;
                }
            }
            if (best_w == windows.size()) {
                if (fail_wave != nullptr)
                    *fail_wave = wi;
                return false; // nothing fits: trigger fallback
            }

            const DeviceSet &win = windows[best_w];
            for (DeviceId d : win) {
                state.activations[d] += act_share;
                for (std::int64_t i = 0; i < e.numOps; ++i) {
                    const OperatorDesc &op =
                        graph.base().op(m.ops[e.opBegin + i]);
                    const std::int64_t key = reference::paramDedupKey(op);
                    const double share = param_share(op, cfg);
                    auto [it, inserted] =
                        state.params[d].emplace(key, share);
                    if (!inserted && share > it->second)
                        it->second = share;
                }
            }
            e.devices = win;
            state.lastSlice[e.metaOp] = win;
            result.estimatedCommSeconds += best_comm;
            if (options.strategy != PlacementStrategy::Sequential) {
                DeviceSet remaining;
                std::set_difference(free.begin(), free.end(),
                                    win.begin(), win.end(),
                                    std::back_inserter(remaining));
                free = std::move(remaining);
            }
        }
    }

    result.peakBytes.assign(num_devices, 0.0);
    for (std::uint32_t d = 0; d < num_devices; ++d)
        result.peakBytes[d] = state.deviceTotal(d);
    return true;
}

inline PlacementResult
place(const ClusterTopology &topo, const HardwareModel &hw,
      const MemoryModel &mem, const PlacementOptions &options,
      const MetaGraph &graph, ExecutionPlan &plan)
{
    PlacementResult result;
    std::size_t fail_wave = 0;
    if (tryPlace(topo, hw, mem, options, graph, plan, kNeverMemoryFirst,
                 result, &fail_wave))
        return result;
    // Partial restart: memory-first from the first infeasible wave.
    if (fail_wave > 0) {
        result = {};
        result.usedMemoryFallback = true;
        result.fallbackRestartWave = fail_wave;
        if (tryPlace(topo, hw, mem, options, graph, plan, fail_wave,
                     result))
            return result;
    }
    // Last resort: the full memory-first restart.
    result = {};
    result.usedMemoryFallback = true;
    fatalIf(!tryPlace(topo, hw, mem, options, graph, plan, 0, result),
            "reference place: workload does not fit device memory even "
            "with memory-first placement");
    return result;
}

/** The full pre-optimization planning pipeline (ExecutionPlanner::
 *  plan() with the frozen scheduler and placement substituted). */
inline PlannerOutput
plan(const HardwareModel &hw, const PlannerOptions &options,
     const MetaGraph &graph)
{
    const std::uint32_t n = hw.topology().numDevices();

    PlannerOutput out;
    ScalabilityEstimator estimator(hw, options.estimator);
    out.curves = estimator.estimateAll(graph, n);

    ResourceAllocator allocator(graph, out.curves, n, options.allocator);
    std::vector<LevelAllocation> allocations = allocator.allocateAll();

    out.plan.waves = scheduleAll(graph, out.curves, n, options.scheduler,
                                 allocations);
    out.plan.numDevices = n;
    out.plan.allocations = std::move(allocations);
    out.plan.theoreticalOptimum = 0;
    for (const LevelAllocation &a : out.plan.allocations)
        out.plan.theoreticalOptimum += a.continuous.cStar;
    out.plan.estimatedSpan = out.plan.waves.empty()
        ? 0.0
        : out.plan.waves.back().start + out.plan.waves.back().duration;

    MemoryModel mem(options.memory);
    out.placement = place(hw.topology(), hw, mem, options.placement,
                          graph, out.plan);
    out.plan.annotateReadiness(graph);
    out.plan.validate(graph);
    return out;
}

/**
 * IslandAware window generation as it was before the catch-all
 * learned to work from island takes, frozen: per-island bands, pair
 * unions, then the greedy catch-all built by materializing one
 * variant per start island, sorting each, sorting the variants
 * lexicographically and deduping. Its extras (content and order) are
 * the contract.
 */
inline void
islandAwareGenerate(const ClusterTopology &topo, const DeviceSet &free,
                    std::uint32_t n, CandidateWindows &out)
{
    out.bands.clear();
    out.extras.clear();
    const std::size_t F = free.size();
    const std::size_t num_isl = topo.numIslands();
    std::vector<std::vector<std::uint32_t>> isl(num_isl);
    for (std::size_t pos = 0; pos < F; ++pos)
        isl[topo.islandOf(free[pos])].push_back(
            static_cast<std::uint32_t>(pos));

    std::size_t largest = 0;
    for (std::size_t k = 0; k < num_isl; ++k) {
        largest = std::max(largest, isl[k].size());
        if (isl[k].size() >= n)
            out.bands.push_back(isl[k]);
    }

    for (std::size_t i = 0; i + 1 < num_isl && n >= 2; ++i) {
        const std::size_t ci = isl[i].size();
        if (ci == 0)
            continue;
        for (std::size_t j = i + 1; j < num_isl; ++j) {
            const std::size_t cj = isl[j].size();
            if (cj == 0 || ci + cj < n)
                continue;
            if (ci >= n && cj >= n)
                continue;
            const std::size_t lo =
                n > cj ? static_cast<std::size_t>(n - cj) : 1;
            const std::size_t hi =
                std::min(ci, static_cast<std::size_t>(n - 1));
            if (lo > hi)
                continue;
            const std::size_t takes[3] = {
                hi,
                std::clamp<std::size_t>(n / 2, lo, hi),
                lo,
            };
            std::size_t prev = num_isl + n;
            for (std::size_t take_i : takes) {
                if (take_i == prev)
                    continue;
                prev = take_i;
                std::vector<std::uint32_t> win;
                std::merge(isl[i].begin(),
                           isl[i].begin() +
                               static_cast<std::ptrdiff_t>(take_i),
                           isl[j].begin(),
                           isl[j].begin() +
                               static_cast<std::ptrdiff_t>(n - take_i),
                           std::back_inserter(win));
                out.extras.push_back(std::move(win));
            }
        }
    }

    if (largest < n) {
        std::vector<std::size_t> order;
        for (std::size_t k = 0; k < num_isl; ++k)
            if (!isl[k].empty())
                order.push_back(k);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return isl[a].size() > isl[b].size();
                         });
        std::vector<std::vector<std::uint32_t>> greedy;
        for (std::size_t start : order) {
            std::vector<std::uint32_t> win;
            auto take_from = [&](std::size_t k) {
                if (win.size() >= n)
                    return;
                const std::size_t take = std::min<std::size_t>(
                    isl[k].size(), n - win.size());
                win.insert(win.end(), isl[k].begin(),
                           isl[k].begin() +
                               static_cast<std::ptrdiff_t>(take));
            };
            take_from(start);
            for (std::size_t k : order)
                if (k != start)
                    take_from(k);
            std::sort(win.begin(), win.end());
            greedy.push_back(std::move(win));
        }
        std::sort(greedy.begin(), greedy.end());
        greedy.erase(std::unique(greedy.begin(), greedy.end()),
                     greedy.end());
        for (auto &win : greedy)
            out.extras.push_back(std::move(win));
    }
}

} // namespace spindle::reference

#endif // SPINDLE_TESTS_REFERENCE_PLANNER_H
