/**
 * @file
 * Reference-vs-optimized planner equivalence.
 *
 * The planner fast path (incremental placement scoring, the
 * scheduler's maintained candidate order, memoized cost lookups)
 * promises *bit-identical* plans to the original implementation.
 * This suite pins that promise: the pre-optimization wavefront
 * scheduler and device placement are frozen below, verbatim, and
 * every seed workload is planned by both pipelines and byte-compared
 * — comm-first and memory-first placement passes alike.
 *
 * A determinism case re-runs the planner to catch accidental
 * dependence on hash or sharded-memo iteration order, and concurrent
 * planners generating windows at once must match a serial run.
 *
 * If an intentional scoring change ever lands, these reference
 * copies must be updated alongside it (and the change called out as
 * plan-affecting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>

#include "common/math_util.h"
#include "planner/planner.h"
#include "test_util.h"

namespace spindle {
namespace {

using testutil::fig3Workload;

// ===================================================================
// Frozen pre-optimization reference implementation
// ===================================================================

namespace reference {

std::int64_t
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
double
remainingTime(const MetaOpState &st, const ScalingCurve &curve)
{
    double total = 0;
    for (const AslTuple &t : st.tuples)
        total += curve.timeAt(t.n) * static_cast<double>(t.l);
    return total;
}

double
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

std::vector<Wave>
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

void islandAwareGenerate(const ClusterTopology &topo, const DeviceSet &free,
                         std::uint32_t n, CandidateWindows &out);

bool
tryPlace(const ClusterTopology &topo, const HardwareModel &hw,
         const MemoryModel &mem, const PlacementOptions &options,
         const MetaGraph &graph, ExecutionPlan &plan, bool memory_first,
         PlacementResult &result)
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

    for (Wave &wave : plan.waves) {
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
            if (best_w == windows.size())
                return false; // nothing fits: trigger fallback

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

PlacementResult
place(const ClusterTopology &topo, const HardwareModel &hw,
      const MemoryModel &mem, const PlacementOptions &options,
      const MetaGraph &graph, ExecutionPlan &plan)
{
    PlacementResult result;
    if (tryPlace(topo, hw, mem, options, graph, plan,
                 /*memory_first=*/false, result))
        return result;
    result = {};
    result.usedMemoryFallback = true;
    fatalIf(!tryPlace(topo, hw, mem, options, graph, plan,
                      /*memory_first=*/true, result),
            "reference place: workload does not fit device memory even "
            "with memory-first placement");
    return result;
}

/** The full pre-optimization planning pipeline (ExecutionPlanner::
 *  plan() with the frozen scheduler and placement substituted). */
PlannerOutput
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
void
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

} // namespace reference

// ===================================================================
// Byte comparison helpers
// ===================================================================

/** Exact (bit-pattern) double equality: no tolerance, -0.0 != 0.0. */
::testing::AssertionResult
sameBits(double a, double b)
{
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " vs " << b << " (bit patterns differ)";
}

void
expectPlansIdentical(const ExecutionPlan &ref, const ExecutionPlan &opt)
{
    EXPECT_EQ(ref.numDevices, opt.numDevices);
    EXPECT_TRUE(sameBits(ref.estimatedSpan, opt.estimatedSpan));
    EXPECT_TRUE(sameBits(ref.theoreticalOptimum, opt.theoreticalOptimum));

    ASSERT_EQ(ref.waves.size(), opt.waves.size());
    for (std::size_t i = 0; i < ref.waves.size(); ++i) {
        const Wave &rw = ref.waves[i];
        const Wave &ow = opt.waves[i];
        SCOPED_TRACE(strCat("wave ", i));
        EXPECT_EQ(rw.index, ow.index);
        EXPECT_EQ(rw.level, ow.level);
        EXPECT_EQ(rw.stream, ow.stream);
        EXPECT_EQ(rw.predecessors, ow.predecessors);
        EXPECT_TRUE(sameBits(rw.start, ow.start));
        EXPECT_TRUE(sameBits(rw.duration, ow.duration));
        ASSERT_EQ(rw.entries.size(), ow.entries.size());
        for (std::size_t j = 0; j < rw.entries.size(); ++j) {
            const WaveEntry &re = rw.entries[j];
            const WaveEntry &oe = ow.entries[j];
            SCOPED_TRACE(strCat("entry ", j));
            EXPECT_EQ(re.metaOp, oe.metaOp);
            EXPECT_EQ(re.n, oe.n);
            EXPECT_EQ(re.opBegin, oe.opBegin);
            EXPECT_EQ(re.numOps, oe.numOps);
            EXPECT_TRUE(sameBits(re.duration, oe.duration));
            EXPECT_EQ(re.devices, oe.devices);
        }
    }

    ASSERT_EQ(ref.allocations.size(), opt.allocations.size());
    for (std::size_t k = 0; k < ref.allocations.size(); ++k) {
        const LevelAllocation &ra = ref.allocations[k];
        const LevelAllocation &oa = opt.allocations[k];
        SCOPED_TRACE(strCat("level ", k));
        EXPECT_EQ(ra.metaOps, oa.metaOps);
        EXPECT_TRUE(sameBits(ra.continuous.cStar, oa.continuous.cStar));
        ASSERT_EQ(ra.plans.size(), oa.plans.size());
        for (std::size_t p = 0; p < ra.plans.size(); ++p) {
            EXPECT_EQ(ra.plans[p].metaOp, oa.plans[p].metaOp);
            ASSERT_EQ(ra.plans[p].tuples.size(),
                      oa.plans[p].tuples.size());
            for (std::size_t t = 0; t < ra.plans[p].tuples.size(); ++t) {
                EXPECT_EQ(ra.plans[p].tuples[t].n,
                          oa.plans[p].tuples[t].n);
                EXPECT_EQ(ra.plans[p].tuples[t].l,
                          oa.plans[p].tuples[t].l);
            }
        }
    }
}

void
expectPlacementsIdentical(const PlacementResult &ref,
                          const PlacementResult &opt)
{
    EXPECT_EQ(ref.usedMemoryFallback, opt.usedMemoryFallback);
    EXPECT_TRUE(sameBits(ref.estimatedCommSeconds,
                         opt.estimatedCommSeconds));
    ASSERT_EQ(ref.peakBytes.size(), opt.peakBytes.size());
    for (std::size_t d = 0; d < ref.peakBytes.size(); ++d)
        EXPECT_TRUE(sameBits(ref.peakBytes[d], opt.peakBytes[d]))
            << "device " << d;
}

/** Reference vs optimized on an explicit cluster config. */
void
expectEquivalentOn(const ComputationGraph &graph, ClusterConfig cluster,
                   PlannerOptions options = {})
{
    ClusterTopology topo(std::move(cluster));
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);

    PlannerOutput ref = reference::plan(hw, options, meta);

    // The optimized pipeline must reproduce the frozen reference bit
    // for bit.
    PlannerOutput opt = ExecutionPlanner(hw, options).plan(meta);
    expectPlansIdentical(ref.plan, opt.plan);
    expectPlacementsIdentical(ref.placement, opt.placement);
}

void
expectEquivalent(const ComputationGraph &graph, std::uint32_t num_nodes,
                 PlannerOptions options = {},
                 ClusterConfig cluster = {})
{
    cluster.numNodes = num_nodes;
    cluster.gpusPerNode = 8;
    expectEquivalentOn(graph, std::move(cluster), options);
}

// ===================================================================
// Seed workloads, comm-first pass
// ===================================================================

TEST(PlannerEquivalence, Fig3Workload)
{
    expectEquivalent(fig3Workload(), 2);
}

TEST(PlannerEquivalence, Clip4Tasks)
{
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2);
}

TEST(PlannerEquivalence, Clip7Tasks)
{
    expectEquivalent(buildMultitaskClip({.numTasks = 7}), 2);
}

TEST(PlannerEquivalence, Clip10Tasks)
{
    expectEquivalent(buildMultitaskClip({.numTasks = 10}), 4);
}

TEST(PlannerEquivalence, Ofasys4Tasks)
{
    expectEquivalent(buildOfasys({.numTasks = 4}), 2);
}

TEST(PlannerEquivalence, Ofasys7Tasks)
{
    expectEquivalent(buildOfasys({.numTasks = 7}), 4);
}

TEST(PlannerEquivalence, QwenVal9B)
{
    expectEquivalent(buildQwenVal({}), 2);
}

TEST(PlannerEquivalence, QwenVal9BLargerCluster)
{
    expectEquivalent(buildQwenVal({}), 8);
}

// ===================================================================
// Alternate planner configurations
// ===================================================================

TEST(PlannerEquivalence, SequentialPlacementStrategy)
{
    PlannerOptions options;
    options.placement.strategy = PlacementStrategy::Sequential;
    expectEquivalent(fig3Workload(), 2, options);
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2, options);
}

TEST(PlannerEquivalence, NoResourceExtension)
{
    PlannerOptions options;
    options.scheduler.extendResources = false;
    expectEquivalent(buildMultitaskClip({.numTasks = 7}), 2, options);
}

TEST(PlannerEquivalence, ZeroShardParams)
{
    PlannerOptions options;
    options.memory.zeroShardParams = true;
    expectEquivalent(buildQwenVal({.size = QwenValConfig::Size::B30,
                                   .batch = 128}),
                     8, options);
}

TEST(PlannerEquivalence, InvertedLinkBandwidthOrdering)
{
    // A fabric whose inter-island links out-run the intra-island
    // ones (fat IB across PCIe-only boxes): placement's link ranks
    // must still mirror flowTime's max-bandwidth pair selection
    // instead of assuming copy > intra > inter ordering. The 4-node
    // runs matter: only there do source slices span islands, where a
    // device with an intra pair *also* has faster inter pairs.
    ClusterConfig cluster;
    cluster.intraIsland = {40 * kGiga, 3 * kMicro};
    cluster.interIsland = {100 * kGiga, 10 * kMicro};
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2, {},
                     cluster);
    expectEquivalent(fig3Workload(), 2, {}, cluster);
    expectEquivalent(buildMultitaskClip({.numTasks = 10}), 4, {},
                     cluster);
    expectEquivalent(buildOfasys({.numTasks = 7}), 4, {}, cluster);
}

TEST(PlannerEquivalence, TiedLinkClassBandwidths)
{
    // Equal bandwidth with different latencies across two classes:
    // placement's link ranks must follow flowTime's lower-latency
    // tie-break (the resolver's selection order) and match the
    // reference bit for bit.
    ClusterConfig cluster;
    cluster.intraIsland = {50 * kGiga, 3 * kMicro};
    cluster.interIsland = {50 * kGiga, 10 * kMicro};
    expectEquivalent(buildMultitaskClip({.numTasks = 10}), 4, {},
                     cluster);
    expectEquivalent(buildOfasys({.numTasks = 7}), 4, {}, cluster);
}

TEST(PlannerEquivalence, OnDeviceCopySlowestOrdering)
{
    // Degenerate ordering with the on-device copy class slowest of
    // all: overlapping-device pairs must not shadow faster fabric
    // links.
    ClusterConfig cluster;
    cluster.device.copyBandwidth = 10 * kGiga;
    expectEquivalent(buildMultitaskClip({.numTasks = 7}), 4, {},
                     cluster);
}

TEST(PlannerEquivalence, NoisyEstimator)
{
    PlannerOptions options;
    options.estimator.noiseStdFrac = 0.05;
    expectEquivalent(buildMultitaskClip({.numTasks = 4}), 2, options);
}

// ===================================================================
// Island-graph topologies (explicit islands, permuted numbering,
// heterogeneous sizes, per-pair overrides)
// ===================================================================

/** Islands striding the id space: device d belongs to island d % k. */
ClusterConfig
stripedCluster(std::uint32_t num_islands, std::uint32_t island_size)
{
    ClusterConfig cfg;
    cfg.islands.resize(num_islands);
    for (std::uint32_t d = 0; d < num_islands * island_size; ++d)
        cfg.islands[d % num_islands].devices.push_back(d);
    return cfg;
}

/** Contiguous islands of the given (possibly mixed) sizes. */
ClusterConfig
heteroCluster(const std::vector<std::uint32_t> &sizes)
{
    ClusterConfig cfg;
    std::uint32_t next = 0;
    for (std::uint32_t s : sizes) {
        IslandSpec island;
        for (std::uint32_t i = 0; i < s; ++i)
            island.devices.push_back(next++);
        cfg.islands.push_back(std::move(island));
    }
    return cfg;
}

TEST(PlannerEquivalence, ExplicitIslandsMatchShorthand)
{
    // An explicit island graph identical to the 2 x 8 shorthand must
    // plan byte-identically to it (and to the frozen reference).
    ClusterConfig shorthand;
    shorthand.numNodes = 2;
    shorthand.gpusPerNode = 8;
    ClusterConfig explicit_cfg = heteroCluster({8, 8});

    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta_a = contractGraph(g);
    MetaGraph meta_b = contractGraph(g);

    ClusterTopology topo_a(shorthand);
    ClusterTopology topo_b(explicit_cfg);
    HardwareModel hw_a(topo_a), hw_b(topo_b);
    PlannerOutput a = ExecutionPlanner(hw_a).plan(meta_a);
    PlannerOutput b = ExecutionPlanner(hw_b).plan(meta_b);
    expectPlansIdentical(a.plan, b.plan);
    expectPlacementsIdentical(a.placement, b.placement);

    expectEquivalentOn(g, explicit_cfg);
}

TEST(PlannerEquivalence, PermutedDeviceNumbering)
{
    // Interleaved island membership: contiguous free-list runs
    // straddle islands constantly, exercising the island-change
    // prefix and the per-position link classes of the banded sweep
    // against the reference's brute-force rescan.
    expectEquivalentOn(buildMultitaskClip({.numTasks = 4}),
                       stripedCluster(2, 8));
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}),
                       stripedCluster(4, 8));
    expectEquivalentOn(buildOfasys({.numTasks = 7}),
                       stripedCluster(4, 8));
}

TEST(PlannerEquivalence, HeterogeneousIslandSizes)
{
    expectEquivalentOn(buildMultitaskClip({.numTasks = 4}),
                       heteroCluster({6, 10}));
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}),
                       heteroCluster({12, 4, 12, 4}));
    expectEquivalentOn(buildQwenVal({}), heteroCluster({6, 10}));
}

TEST(PlannerEquivalence, PerPairLinkOverrides)
{
    // Non-uniform fabric: a per-island intra override and per-pair
    // overrides give more distinct links than the three default
    // classes; the placer ranks all of them through the flow
    // resolver and must still match the reference bit for bit.
    ClusterConfig cfg = heteroCluster({8, 8, 8, 8});
    cfg.islands[1].intra = {400 * kGiga, 1 * kMicro};
    cfg.islandLinks.push_back(
        {0, 3, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});
    cfg.islandLinks.push_back({1, 2, {100 * kGiga, 5 * kMicro}, {}});
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}), cfg);
    expectEquivalentOn(buildOfasys({.numTasks = 7}), cfg);
}

TEST(PlannerEquivalence, ManyDistinctLinks)
{
    // Sixteen 2-GPU islands, each with its own intra class, and every
    // island pair with its own slower point-to-point class: a window
    // off the source's islands ranks by its best pair link, and there
    // are more distinct links than one word of packed rank counters
    // holds, so band scoring must read counters past the first word.
    ClusterConfig cfg = heteroCluster(std::vector<std::uint32_t>(16, 2));
    for (std::uint32_t i = 0; i < 16; ++i)
        cfg.islands[i].intra = {(200.0 + 5.0 * i) * kGiga, 2 * kMicro};
    for (std::uint32_t a = 0; a < 16; ++a)
        for (std::uint32_t b = a + 1; b < 16; ++b)
            cfg.islandLinks.push_back(
                {a, b, {(10.0 + 0.5 * (16 * a + b)) * kGiga, 10 * kMicro},
                 {}});
    expectEquivalentOn(buildMultitaskClip({.numTasks = 10}), cfg);
    expectEquivalentOn(buildOfasys({.numTasks = 7}), cfg);
}

// ===================================================================
// IslandAware window generation
// ===================================================================

TEST(PlannerEquivalence, IslandAwareLowersInterIslandComm)
{
    // On mixed-size islands the contiguous-runs windows fragment
    // across island boundaries; island-aware generation must
    // strictly lower the estimated inter-island comm seconds (and
    // here also the total estimate) on seed workloads.
    for (const ComputationGraph &g :
         {buildOfasys({.numTasks = 4}), buildQwenVal({})}) {
        ClusterTopology topo(heteroCluster({6, 10}));
        HardwareModel hw(topo);
        MetaGraph meta_runs = contractGraph(g);
        MetaGraph meta_isl = contractGraph(g);

        PlannerOptions runs_opt;
        runs_opt.placement.windows = WindowPolicy::ContiguousRuns;
        PlannerOptions isl_opt;
        isl_opt.placement.windows = WindowPolicy::IslandAware;

        PlannerOutput runs =
            ExecutionPlanner(hw, runs_opt).plan(meta_runs);
        PlannerOutput isl =
            ExecutionPlanner(hw, isl_opt).plan(meta_isl);

        EXPECT_LT(isl.placement.interIslandCommSeconds,
                  runs.placement.interIslandCommSeconds);
        EXPECT_LE(isl.placement.estimatedCommSeconds,
                  runs.placement.estimatedCommSeconds);
    }
}

TEST(PlannerEquivalence, IslandAwareFirstWaveStaysIntraIsland)
{
    // With every island able to host every first-wave entry, the
    // island-aware generator emits no cross-island candidates, so
    // wave-0 windows never straddle — independent of numbering.
    for (ClusterConfig cfg :
         {stripedCluster(2, 8), heteroCluster({8, 8})}) {
        ClusterTopology topo(cfg);
        HardwareModel hw(topo);
        ComputationGraph g = buildMultitaskClip({.numTasks = 4});
        MetaGraph meta = contractGraph(g);
        PlannerOptions options;
        options.placement.windows = WindowPolicy::IslandAware;
        PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
        ASSERT_FALSE(out.plan.waves.empty());
        for (const WaveEntry &e : out.plan.waves.front().entries) {
            if (e.n <= topo.minIslandSize()) {
                EXPECT_TRUE(topo.withinOneIsland(e.devices))
                    << deviceSetStr(e.devices);
            }
        }
    }
}

/**
 * The placer's contract on one emission over a free list of @p F
 * devices for an entry of @p n: at least one candidate, every band
 * and extra strictly ascending with positions below F, every band at
 * least n long and every extra exactly n.
 */
void
expectWindowContract(const CandidateWindows &cw, std::size_t F,
                     std::uint32_t n)
{
    ASSERT_FALSE(cw.bands.empty() && cw.extras.empty());
    const auto valid = [F](const std::vector<std::uint32_t> &pos) {
        for (std::size_t i = 0; i < pos.size(); ++i)
            if (pos[i] >= F || (i > 0 && pos[i] <= pos[i - 1]))
                return false;
        return true;
    };
    for (const auto &band : cw.bands) {
        ASSERT_TRUE(valid(band));
        ASSERT_GE(band.size(), n);
    }
    for (const auto &extra : cw.extras) {
        ASSERT_TRUE(valid(extra));
        ASSERT_EQ(extra.size(), n);
    }
}

/**
 * The IslandAware candidates on one free list, for each n in @p ns,
 * byte-compared with the frozen reference: bands, then extras in
 * content *and* order (the sweep keeps the first of equally scored
 * extras). Both policies' emissions must also keep the placer's
 * contract, which placement relies on without checking. @p got is
 * reused across calls, the way the placer reuses its
 * CandidateWindows across entries, so stale workspace shows.
 */
void
expectIslandAwareMatchesReference(const ClusterTopology &topo,
                                  const DeviceSet &free,
                                  const std::vector<std::uint32_t> &ns,
                                  CandidateWindows &got)
{
    CandidateWindows want;
    for (std::uint32_t n : ns) {
        SCOPED_TRACE(strCat("n=", n, " of ", free.size(), " free"));
        generateWindows(WindowPolicy::IslandAware, topo, free, n, got);
        reference::islandAwareGenerate(topo, free, n, want);
        ASSERT_EQ(got.bands, want.bands);
        ASSERT_EQ(got.extras, want.extras);
        expectWindowContract(got, free.size(), n);
        generateWindows(WindowPolicy::ContiguousRuns, topo, free, n, got);
        expectWindowContract(got, free.size(), n);
    }
}

/** Every entry size a free list of @p F devices can host. */
std::vector<std::uint32_t>
everyN(std::size_t F)
{
    std::vector<std::uint32_t> ns(F);
    std::iota(ns.begin(), ns.end(), 1u);
    return ns;
}

/** @p topo's devices, each kept free with probability @p keep (at
 *  least one is). */
DeviceSet
punchedFree(const ClusterTopology &topo, double keep, std::mt19937 &rng)
{
    std::bernoulli_distribution kept(keep);
    DeviceSet free;
    for (DeviceId d = 0; d < topo.numDevices(); ++d)
        if (kept(rng))
            free.push_back(d);
    if (free.empty())
        free.push_back(0);
    return free;
}

DeviceSet
allFree(const ClusterTopology &topo)
{
    DeviceSet free(topo.numDevices());
    std::iota(free.begin(), free.end(), DeviceId{0});
    return free;
}

TEST(PlannerEquivalence, IslandAwareCandidatesMatchFrozenReference)
{
    std::mt19937 rng(20251017);
    CandidateWindows got;

    // Random mixed island sizes with many equal-size ties, numbered
    // contiguously or shuffled across islands, on full and randomly
    // punched free lists, at every n.
    const std::uint32_t sizes_pool[] = {1, 2, 3, 4, 4, 6, 8, 8, 12};
    std::uniform_int_distribution<std::size_t> pick(
        0, std::size(sizes_pool) - 1);
    std::uniform_int_distribution<std::uint32_t> num_islands(2, 16);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(strCat("trial ", trial));
        std::vector<std::uint32_t> sizes(num_islands(rng));
        for (std::uint32_t &sz : sizes)
            sz = sizes_pool[pick(rng)];
        ClusterConfig cfg = heteroCluster(sizes);
        if (trial % 2 == 1) {
            std::vector<DeviceId> ids;
            for (const IslandSpec &island : cfg.islands)
                ids.insert(ids.end(), island.devices.begin(),
                           island.devices.end());
            std::shuffle(ids.begin(), ids.end(), rng);
            std::size_t next = 0;
            for (IslandSpec &island : cfg.islands)
                for (DeviceId &d : island.devices)
                    d = ids[next++];
        }
        ClusterTopology topo(cfg);
        for (double keep : {1.0, 0.7, 0.35}) {
            SCOPED_TRACE(strCat("keep ", keep));
            const DeviceSet free =
                keep == 1.0 ? allFree(topo) : punchedFree(topo, keep, rng);
            expectIslandAwareMatchesReference(topo, free,
                                              everyN(free.size()), got);
        }
    }

    // Interleaved (striped) numbering: every island's positions
    // interleave with every other's, so windows need merging.
    for (auto [islands, size] : {std::pair{4u, 8u}, {3u, 5u}, {7u, 3u}}) {
        SCOPED_TRACE(strCat("striped ", islands, "x", size));
        ClusterTopology topo(stripedCluster(islands, size));
        const DeviceSet full = allFree(topo);
        expectIslandAwareMatchesReference(topo, full, everyN(full.size()),
                                          got);
        const DeviceSet punched = punchedFree(topo, 0.6, rng);
        expectIslandAwareMatchesReference(
            topo, punched, everyN(punched.size()), got);
    }

    // The 2048-GPU mixed 12/4 layout, sampled n (every n would be
    // slow for the reference): the catch-all's boundary sizes and the
    // entry sizes a 70B plan uses.
    std::vector<std::uint32_t> layout;
    for (int pair = 0; pair < 128; ++pair) {
        layout.push_back(12);
        layout.push_back(4);
    }
    ClusterTopology topo(heteroCluster(layout));
    const DeviceSet full = allFree(topo);
    expectIslandAwareMatchesReference(
        topo, full, {4, 12, 13, 16, 17, 24, 100, 697, 698, 1023, 1024,
                     1500, 2047, 2048},
        got);
    const DeviceSet punched = punchedFree(topo, 0.6, rng);
    const auto F = static_cast<std::uint32_t>(punched.size());
    expectIslandAwareMatchesReference(
        topo, punched, {13, 17, 200, 698, F / 2, F - 1, F}, got);
}

TEST(PlannerEquivalence, IslandAwareConcurrentPlansMatchSerial)
{
    // Window generation keeps no state of its own: two planners on
    // two threads generate IslandAware windows at once, each through
    // its own CandidateWindows workspace. Both
    // must plan byte-identically to a serial run (and race-free
    // under TSan). Entries outgrow every island, so the greedy
    // catch-all runs.
    std::vector<std::uint32_t> layout;
    for (int pair = 0; pair < 4; ++pair) {
        layout.push_back(12);
        layout.push_back(4);
    }
    ClusterTopology topo(heteroCluster(layout));
    HardwareModel hw(topo);
    const ComputationGraph graphs[] = {buildQwenVal({}),
                                       buildMultitaskClip({.numTasks = 10})};
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;

    PlannerOutput serial[2];
    for (int g = 0; g < 2; ++g) {
        MetaGraph meta = contractGraph(graphs[g]);
        serial[g] = ExecutionPlanner(hw, options).plan(meta);
    }
    bool outgrows = false;
    for (const PlannerOutput &out : serial)
        for (const Wave &w : out.plan.waves)
            for (const WaveEntry &e : w.entries)
                outgrows = outgrows || e.n > topo.maxIslandSize();
    ASSERT_TRUE(outgrows) << "no entry reaches the catch-all";

    // Each thread plans both graphs, in opposite orders, several
    // times, so the two threads overlap in window generation.
    PlannerOutput concurrent[2][2];
    auto worker = [&](int t) {
        for (int rep = 0; rep < 3; ++rep)
            for (int i = 0; i < 2; ++i) {
                const int g = (i + t) % 2;
                MetaGraph meta = contractGraph(graphs[g]);
                concurrent[t][g] = ExecutionPlanner(hw, options).plan(meta);
            }
    };
    std::thread a(worker, 0), b(worker, 1);
    a.join();
    b.join();
    for (int t = 0; t < 2; ++t)
        for (int g = 0; g < 2; ++g) {
            SCOPED_TRACE(strCat("thread ", t, " graph ", g));
            expectPlansIdentical(serial[g].plan, concurrent[t][g].plan);
            expectPlacementsIdentical(serial[g].placement,
                                      concurrent[t][g].placement);
        }
}

// ===================================================================
// Explicit-window (extras) scoring
// ===================================================================

/**
 * IslandAware placement against the reference's brute-force scorer
 * over the frozen IslandAware windows. Extras are scored window by
 * window instead of from band prefix state, so this pins their
 * pricing of flows and residency to the reference, on every fabric
 * the link ranks distinguish. CLIP-10 has no TP > 1 entry; the TP
 * island penalty has its own case below.
 */
TEST(PlannerEquivalence, ExtrasMatchReferenceOnEveryFabric)
{
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;

    auto nodes = [](ClusterConfig cfg, std::uint32_t num_nodes) {
        cfg.numNodes = num_nodes;
        cfg.gpusPerNode = 8;
        return cfg;
    };
    ClusterConfig inverted;
    inverted.intraIsland = {40 * kGiga, 3 * kMicro};
    inverted.interIsland = {100 * kGiga, 10 * kMicro};
    ClusterConfig tied;
    tied.intraIsland = {50 * kGiga, 3 * kMicro};
    tied.interIsland = {50 * kGiga, 10 * kMicro};
    ClusterConfig copy_slowest;
    copy_slowest.device.copyBandwidth = 10 * kGiga;
    ClusterConfig per_pair = heteroCluster({8, 8, 8, 8});
    per_pair.islands[1].intra = {400 * kGiga, 1 * kMicro};
    per_pair.islandLinks.push_back(
        {0, 3, {25 * kGiga, 20 * kMicro}, {200 * kGiga, 20 * kMicro}});
    per_pair.islandLinks.push_back({1, 2, {100 * kGiga, 5 * kMicro}, {}});

    const std::pair<const char *, ClusterConfig> fabrics[] = {
        {"homogeneous", nodes({}, 4)},
        {"inverted", nodes(inverted, 4)},
        {"tied", nodes(tied, 4)},
        {"copy-slowest", nodes(copy_slowest, 4)},
        {"striped", stripedCluster(4, 8)},
        {"per-pair", per_pair},
    };
    const ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    for (const auto &[name, cfg] : fabrics) {
        SCOPED_TRACE(name);
        expectEquivalentOn(g, cfg, options);
    }
}

TEST(PlannerEquivalence, ExtrasPriceTheTpIslandPenalty)
{
    // A batch below the entry size forces TP > 1, so extras that span
    // islands pay the TP island penalty; CLIP-10 above never gets
    // TP > 1. ZeRO-3 keeps the 9B model inside device memory.
    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    options.memory.zeroShardParams = true;
    const ComputationGraph g = buildQwenVal({.batch = 2});
    for (const ClusterConfig &cfg :
         {heteroCluster({12, 4, 12, 4}), heteroCluster({6, 10})}) {
        SCOPED_TRACE(strCat(cfg.islands.size(), " islands"));
        // The case must reach the penalty: TP > 1 entries whose
        // committed window spans islands.
        ClusterTopology topo(cfg);
        HardwareModel hw(topo);
        MetaGraph meta = contractGraph(g);
        const PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
        std::size_t spanning_tp = 0;
        for (const Wave &w : out.plan.waves)
            for (const WaveEntry &e : w.entries)
                spanning_tp +=
                    hw.bestConfig(memberDesc(meta.metaOp(e.metaOp)), e.n)
                            .tp > 1 &&
                    !topo.withinOneIsland(e.devices);
        EXPECT_GT(spanning_tp, 0u);
        expectEquivalentOn(g, cfg, options);
    }
}

// ===================================================================
// Memory-first fallback pass
// ===================================================================

/** Shrink HBM until comm-first placement of @p g fails, then
 *  byte-compare the memory-first fallback plans of both
 *  implementations. */
void
expectFallbackEquivalent(const ComputationGraph &g)
{
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    ExecutionPlanner roomy_planner(hw_roomy);
    PlannerOutput baseline = roomy_planner.plan(meta);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    // Descend until the fallback fires: comm-first keeps adapting at
    // mild pressure, so march down in steps. The planner fatal()s
    // only if even memory-first cannot fit, which these fractions
    // stay comfortably above.
    bool exercised = false;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);

        PlannerOptions options;
        // The frozen reference restarts the fallback from wave 0;
        // pin that semantic here (the partial-restart behaviour has
        // its own equivalence coverage in placement_test).
        options.placement.partialFallbackRestart = false;
        PlannerOutput ref = reference::plan(hw, options, fresh);

        PlannerOutput opt = ExecutionPlanner(hw, options).plan(fresh);
        EXPECT_EQ(ref.placement.usedMemoryFallback,
                  opt.placement.usedMemoryFallback);
        expectPlansIdentical(ref.plan, opt.plan);
        expectPlacementsIdentical(ref.placement, opt.placement);
        if (opt.placement.usedMemoryFallback) {
            exercised = true;
            break;
        }
    }
    EXPECT_TRUE(exercised)
        << "memory pressure ladder never triggered the fallback pass; "
           "tighten the fractions";
}

TEST(PlannerEquivalence, MemoryFirstFallbackPass)
{
    {
        SCOPED_TRACE("CLIP-4");
        expectFallbackEquivalent(buildMultitaskClip({.numTasks = 4}));
    }
    // OFASys commits shared parameter keys at different shares on
    // overlapping devices, so a device already holding a key at a
    // smaller share is charged only the difference (the partial-hit
    // probe); under memory-first scoring that charge picks windows.
    SCOPED_TRACE("OFASys-4");
    expectFallbackEquivalent(buildOfasys({.numTasks = 4}));
}

// ===================================================================
// Run-to-run determinism
// ===================================================================

TEST(PlannerEquivalence, PlannerDeterministicAcrossRuns)
{
    // Run one planner 3x and byte-compare: catches accidental
    // dependence on hash or sharded-memo iteration order. The
    // mixed-size island cluster with island-aware windows exercises
    // multi-band sweeps plus cross-island extras.
    ClusterTopology topo(heteroCluster({12, 4, 12, 4}));
    HardwareModel hw(topo);
    ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    MetaGraph meta = contractGraph(g);

    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    ExecutionPlanner planner(hw, options);

    PlannerOutput first = planner.plan(meta);
    for (int run = 1; run < 3; ++run) {
        SCOPED_TRACE(strCat("run ", run));
        PlannerOutput again = planner.plan(meta);
        expectPlansIdentical(first.plan, again.plan);
        expectPlacementsIdentical(first.placement, again.placement);
    }
}

// ===================================================================
// Incremental replanning (plan cache)
// ===================================================================

/**
 * plan() vs cold replan() (cache miss: curve/level memos plus the
 * prefix-donor machinery) vs warm replan() (full hit: positional id
 * remap of the cached plan). All three must be byte-identical — plan() never touches the cache, so it stays
 * the from-scratch reference throughout.
 */
void
expectReplanMatchesPlan(const ComputationGraph &graph,
                        ClusterConfig cluster, PlannerOptions options = {})
{
    ClusterTopology topo(std::move(cluster));
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);
    ExecutionPlanner planner(hw, options);

    PlannerOutput ref = planner.plan(meta);

    PlannerOutput cold = planner.replan(meta);
    EXPECT_TRUE(cold.replan.attempted);
    EXPECT_FALSE(cold.replan.fullHit);
    expectPlansIdentical(ref.plan, cold.plan);
    expectPlacementsIdentical(ref.placement, cold.placement);

    PlannerOutput warm = planner.replan(meta);
    EXPECT_TRUE(warm.replan.attempted);
    EXPECT_TRUE(warm.replan.fullHit);
    EXPECT_EQ(warm.replan.reusedLevels, warm.replan.totalLevels);
    expectPlansIdentical(ref.plan, warm.plan);
    expectPlacementsIdentical(ref.placement, warm.placement);
}

void
expectReplanMatchesPlanOnNodes(const ComputationGraph &graph,
                               std::uint32_t num_nodes,
                               PlannerOptions options = {})
{
    ClusterConfig cluster;
    cluster.numNodes = num_nodes;
    cluster.gpusPerNode = 8;
    expectReplanMatchesPlan(graph, std::move(cluster), options);
}

TEST(PlannerEquivalence, ReplanSeedWorkloads)
{
    expectReplanMatchesPlanOnNodes(fig3Workload(), 2);
    expectReplanMatchesPlanOnNodes(buildMultitaskClip({.numTasks = 4}),
                                   2);
    expectReplanMatchesPlanOnNodes(buildOfasys({.numTasks = 7}), 4);
    expectReplanMatchesPlanOnNodes(buildQwenVal({}), 2);
}

TEST(PlannerEquivalence, ReplanIslandTopologies)
{
    expectReplanMatchesPlan(buildMultitaskClip({.numTasks = 7}),
                            stripedCluster(4, 8));
    expectReplanMatchesPlan(buildOfasys({.numTasks = 4}),
                            heteroCluster({12, 4, 12, 4}));

    PlannerOptions options;
    options.placement.windows = WindowPolicy::IslandAware;
    expectReplanMatchesPlan(buildMultitaskClip({.numTasks = 7}),
                            heteroCluster({12, 4, 12, 4}), options);
}

TEST(PlannerEquivalence, ReplanSequentialPlacementStrategy)
{
    // Sequential placement never donates a prefix (its device cursor
    // is not replayed), but full-hit reuse and the cold recompute
    // must still match plan() bit for bit.
    PlannerOptions options;
    options.placement.strategy = PlacementStrategy::Sequential;
    expectReplanMatchesPlanOnNodes(buildMultitaskClip({.numTasks = 4}),
                                   2, options);
}

TEST(PlannerEquivalence, ReplanWithNoiseFallsBackToPlan)
{
    // Noise draws are invisible to positional signatures, so cached
    // results are not value-transparent; replan() must refuse the
    // incremental path and defer to plan().
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    PlannerOptions options;
    options.estimator.noiseStdFrac = 0.05;
    ExecutionPlanner planner(hw, options);
    PlannerOutput ref = planner.plan(meta);
    PlannerOutput out = planner.replan(meta);
    EXPECT_FALSE(out.replan.attempted);
    expectPlansIdentical(ref.plan, out.plan);
    expectPlacementsIdentical(ref.placement, out.placement);
}

/** One task, three chained transformer stacks: A -> B -> tail. */
ComputationGraph
chainWorkload(std::int64_t tail_hidden)
{
    WorkloadBuilder b;
    const std::int32_t t = b.addTask("chain");
    NodeRange a = b.addModule(
        t, transformerStack("enc.audio", OpType::Audio, 32, 229, 768, 3));
    NodeRange mid = b.addModule(
        t, transformerStack("enc.text", OpType::Text, 32, 77, 768, 4));
    NodeRange tail = b.addModule(
        t, transformerStack("lm", OpType::LM, 32, 512, tail_hidden, 6));
    b.addFlow(a, mid);
    b.addFlow(mid, tail);
    return b.build();
}

TEST(PlannerEquivalence, ReplanReusesUntouchedLevelPrefix)
{
    // Perturb only the tail module of a 3-level chain: levels 0-1
    // keep their signatures (inflows are recorded on the target, so
    // the tail's width is invisible to them), and the incremental
    // path must reuse the cached allocations plus the committed
    // placement prefix verbatim — yet still emit the exact bytes of
    // a from-scratch plan.
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    ComputationGraph g1 = chainWorkload(1024);
    ComputationGraph g2 = chainWorkload(2048);
    MetaGraph m1 = contractGraph(g1);
    MetaGraph m2 = contractGraph(g2);
    ASSERT_EQ(m1.numLevels(), 3u);
    ASSERT_EQ(m2.numLevels(), 3u);

    ExecutionPlanner planner(hw);
    PlannerOutput ref = planner.plan(m2);

    PlannerOutput seed = planner.replan(m1);
    EXPECT_TRUE(seed.replan.attempted);
    EXPECT_FALSE(seed.replan.fullHit);

    PlannerOutput inc = planner.replan(m2);
    EXPECT_TRUE(inc.replan.attempted);
    EXPECT_FALSE(inc.replan.fullHit);
    EXPECT_EQ(inc.replan.totalLevels, 3u);
    EXPECT_EQ(inc.replan.reusedLevels, 2u);
    EXPECT_GT(inc.replan.prefixWaves, 0u);
    expectPlansIdentical(ref.plan, inc.plan);
    expectPlacementsIdentical(ref.placement, inc.placement);

    // The perturbed mix is cached now: replanning it again is a full
    // hit and still byte-identical.
    PlannerOutput warm = planner.replan(m2);
    EXPECT_TRUE(warm.replan.fullHit);
    expectPlansIdentical(ref.plan, warm.plan);
    expectPlacementsIdentical(ref.placement, warm.placement);
}

TEST(PlannerEquivalence, ReplanArrivalOscillation)
{
    // Walk 4 -> 5 -> 4 -> 5 -> 4 tasks: after the first visit to
    // each mix the cache must fully hit, and every replan stays
    // byte-identical to a from-scratch plan. plan() never touches
    // the cache, so interleaving it cannot seed the hits.
    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    ComputationGraph g4 = buildMultitaskClip({.numTasks = 4});
    ComputationGraph g5 = buildMultitaskClip({.numTasks = 5});
    MetaGraph m4 = contractGraph(g4);
    MetaGraph m5 = contractGraph(g5);

    ExecutionPlanner planner(hw);
    const std::vector<const MetaGraph *> sequence{&m4, &m5, &m4, &m5,
                                                  &m4};
    std::uint32_t full_hits = 0;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        SCOPED_TRACE(strCat("event ", i));
        const MetaGraph &meta = *sequence[i];
        PlannerOutput ref = planner.plan(meta);
        PlannerOutput inc = planner.replan(meta);
        full_hits += inc.replan.fullHit ? 1 : 0;
        expectPlansIdentical(ref.plan, inc.plan);
        expectPlacementsIdentical(ref.placement, inc.placement);
    }
    EXPECT_EQ(full_hits, 3u);
    EXPECT_EQ(planner.planCache().stats().fullHits, 3u);
    EXPECT_EQ(planner.planCache().stats().misses, 2u);
}

TEST(PlannerEquivalence, ReplanMemoryFirstFallback)
{
    // Under memory pressure replan() must track place()'s fallback
    // cascade byte for byte, and a fallback plan (stored with an
    // empty commit log) must still full-hit on repeat arrivals.
    ComputationGraph g = buildMultitaskClip({.numTasks = 4});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 2;
    cfg.gpusPerNode = 8;
    ClusterTopology roomy(cfg);
    HardwareModel hw_roomy(roomy);
    ExecutionPlanner roomy_planner(hw_roomy);
    PlannerOutput baseline = roomy_planner.plan(meta);
    double peak = 0;
    for (double b : baseline.placement.peakBytes)
        peak = std::max(peak, b);

    bool exercised = false;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75}) {
        SCOPED_TRACE(strCat("frac=", frac));
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        MetaGraph fresh = contractGraph(g);

        ExecutionPlanner planner(hw);
        PlannerOutput ref = planner.plan(fresh);
        PlannerOutput cold = planner.replan(fresh);
        EXPECT_FALSE(cold.replan.fullHit);
        expectPlansIdentical(ref.plan, cold.plan);
        expectPlacementsIdentical(ref.placement, cold.placement);

        PlannerOutput warm = planner.replan(fresh);
        EXPECT_TRUE(warm.replan.fullHit);
        expectPlansIdentical(ref.plan, warm.plan);
        expectPlacementsIdentical(ref.placement, warm.placement);

        if (ref.placement.usedMemoryFallback) {
            exercised = true;
            break;
        }
    }
    EXPECT_TRUE(exercised)
        << "memory pressure ladder never triggered the fallback pass; "
           "tighten the fractions";
}

// ===================================================================
// Incremental sweep state & admissible band pruning
// ===================================================================

/**
 * Worst case for the incremental per-entry candidate state: tasks 2k
 * share one parameter stack, tasks 2k+1 another, and every task adds
 * a private tower, so wavefront interleaving makes consecutive
 * placement entries alternate between overlapping and fully disjoint
 * sig-key sets. An entry whose keys overlap a previously committed
 * one must see exactly the dirtied devices (the holder lists); an
 * entry with disjoint keys must see none. A stale affected set,
 * flat-mirror entry, or epoch stamp surfaces as a byte mismatch
 * against the frozen reference's brute-force rescan.
 */
ComputationGraph
sigAlternationWorkload()
{
    WorkloadBuilder b;
    const std::int64_t batch = 32;
    SharedModule even_text = b.declareShared(
        transformerStack("even.text", OpType::Text, batch, 77, 768, 3));
    SharedModule odd_lm = b.declareShared(
        transformerStack("odd.lm", OpType::LM, batch, 256, 1024, 4));
    for (int t = 0; t < 6; ++t) {
        const std::int32_t task = b.addTask(strCat("task", t));
        NodeRange tower = b.addModule(
            task,
            transformerStack(strCat("t", t, ".tower"), OpType::Vision,
                             batch, 128 + 16 * t, 768,
                             2 + static_cast<std::uint32_t>(t) % 3));
        NodeRange head =
            t % 2 == 0
                ? b.addModule(task,
                              transformerStack(strCat("t", t, ".text"),
                                               OpType::Text, batch, 77,
                                               768, 3),
                              &even_text)
                : b.addModule(task,
                              transformerStack(strCat("t", t, ".lm"),
                                               OpType::LM, batch, 256,
                                               1024, 4),
                              &odd_lm);
        b.addFlow(tower, head);
    }
    return b.build();
}

TEST(PlannerEquivalence, DirtyTrackingSigAlternation)
{
    ComputationGraph g = sigAlternationWorkload();

    // Reference vs optimized (pruning on by default), on contiguous
    // islands and on a striped numbering whose free-list runs churn
    // across islands.
    expectEquivalent(g, 2);
    expectEquivalentOn(g, stripedCluster(4, 4));

    // And with the admissible pruning disabled: both sides of the
    // pruning toggle must match the same reference bytes.
    PlannerOptions no_prune;
    no_prune.placement.bandPruning = false;
    expectEquivalent(g, 2, no_prune);
}

TEST(PlannerEquivalence, Sampled1024GpuPruningToggle)
{
    // The scale acceptance of the incremental sweep: at the sampled
    // 1024-GPU point (the bench's scale-envelope record), plans must
    // stay byte-identical with admissible band pruning on or off.
    // The frozen reference is deliberately not run here — the
    // pairwise comparison pins exactly the claim the pruning bound
    // proves (strict-inequality pruning keeps the first-best
    // tie-break, so the winner never changes), and the reference
    // already anchors the smaller scales above.
    ComputationGraph g = buildMultitaskClip({.numTasks = 10});
    MetaGraph meta = contractGraph(g);
    ClusterConfig cfg;
    cfg.numNodes = 128;
    cfg.gpusPerNode = 8;
    ClusterTopology topo(cfg);
    HardwareModel hw(topo);

    PlannerOptions anchor_opt;
    anchor_opt.placement.bandPruning = false;
    PlannerOutput anchor = ExecutionPlanner(hw, anchor_opt).plan(meta);
    EXPECT_EQ(anchor.plan.numDevices, 1024u);

    PlannerOptions options;
    options.placement.bandPruning = true;
    PlannerOutput out = ExecutionPlanner(hw, options).plan(meta);
    expectPlansIdentical(anchor.plan, out.plan);
    expectPlacementsIdentical(anchor.placement, out.placement);
}

} // namespace
} // namespace spindle
