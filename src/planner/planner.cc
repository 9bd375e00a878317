#include "planner/planner.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"
#include "common/logging.h"
#include "runtime/memory_model.h"

namespace spindle {

namespace {

using clock_type = std::chrono::steady_clock;

double
secondsBetween(clock_type::time_point a, clock_type::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Fingerprint of every option that can change planned bytes. Only
 * `cache` is excluded: it is bookkeeping, not behavior.
 */
std::uint64_t
optionsFingerprint(const PlannerOptions &o)
{
    std::uint64_t h = kFnvOffset;
    h = mix(h, static_cast<std::uint64_t>(o.estimator.piecewise));
    h = mix(h, o.allocator.bisectionRelTol);
    h = mix(h, static_cast<std::uint64_t>(o.allocator.maxBisectionIters));
    h = mix(h, static_cast<std::uint64_t>(o.scheduler.extendResources));
    h = mix(h, static_cast<std::uint64_t>(o.placement.strategy));
    h = mix(h, static_cast<std::uint64_t>(o.placement.windows));
    h = mix(h, o.placement.memoryWeight);
    h = mix(h, static_cast<std::uint64_t>(o.memory.zeroShardOptimizer));
    h = mix(h, static_cast<std::uint64_t>(o.memory.zeroShardParams));
    return h;
}

/** Fingerprint of every HardwareParams field: each one prices the
 *  curves, hence the plan. */
std::uint64_t
paramsFingerprint(const HardwareParams &p)
{
    std::uint64_t h = kFnvOffset;
    h = mix(h, p.bwdFlopsFactor);
    h = mix(h, p.kernelLaunch);
    h = mix(h, p.halfEffFlops);
    h = mix(h, p.smallKernelFlops);
    h = mix(h, p.smallKernelFactor);
    h = mix(h, p.tinyKernelFlops);
    h = mix(h, p.tinyKernelFactor);
    h = mix(h, p.minEfficiency);
    h = mix(h, static_cast<std::uint64_t>(p.maxTpDegree));
    return h;
}

/** Curve-memo key of one MetaOp (§3.2 reads nothing else from it). */
PlanCache::CurveKey
curveKeyOf(const MetaOp &m, std::uint32_t max_devices)
{
    return {m.type,          m.input,           m.flopsFwdPerOp,
            m.paramBytesPerOp, m.activationBytes, max_devices};
}

/**
 * One memoized pipeline stage over @p count independent items. Each
 * item's result is served from @p memo's tier for its key type — a
 * hit, including an item whose key an earlier item of this graph
 * just stored — or computed (@p compute) and stored. Without a memo
 * every item is computed and no key is built.
 */
template <typename KeyOf, typename Compute>
auto
memoizedStage(PlanCache *memo, std::uint64_t ctx, std::size_t count,
              KeyOf key_of, Compute compute, std::uint64_t &hits)
{
    std::vector<decltype(compute(std::size_t{}))> out;
    out.reserve(count);
    hits = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (memo == nullptr) {
            out.push_back(compute(i));
            continue;
        }
        const auto key = key_of(i);
        if (auto hit = memo->find(ctx, key)) {
            out.push_back(std::move(*hit));
            ++hits;
            continue;
        }
        out.push_back(compute(i));
        memo->store(ctx, key, out.back());
    }
    return out;
}

} // namespace

ExecutionPlanner::ExecutionPlanner(const HardwareModel &hw,
                                   PlannerOptions options)
    : hw_(hw), options_(options)
{
    cache_context_ = mix(
        mix(hw.topology().fingerprint(), paramsFingerprint(hw.params())),
        optionsFingerprint(options_));
}

PlanCache &
ExecutionPlanner::planCache() const
{
    if (options_.cache != nullptr)
        return *options_.cache;
    if (owned_cache_ == nullptr)
        owned_cache_ = std::make_unique<PlanCache>();
    return *owned_cache_;
}

void
ExecutionPlanner::remapCachedPlan(const PlanCache::CachedPlan &hit,
                                  const MetaGraph &graph,
                                  PlannerOutput &out) const
{
    out.plan = hit.plan;
    out.placement = hit.placement;
    out.curves = hit.curves;

    // Positional id map: donor (level, pos) id -> this graph's id.
    // MetaOp ids are dense in both graphs and the signatures match
    // level by level, so the map is a permutation.
    bool identity = true;
    std::vector<MetaOpId> remap(graph.numMetaOps(), -1);
    for (std::size_t k = 0; k < hit.levelIds.size(); ++k) {
        const std::vector<MetaOpId> &ids = graph.level(k);
        panicIf(hit.levelIds[k].size() != ids.size(),
                "replan: cached level shape mismatch");
        for (std::size_t p = 0; p < ids.size(); ++p) {
            remap[hit.levelIds[k][p]] = ids[p];
            identity = identity && hit.levelIds[k][p] == ids[p];
        }
    }
    if (identity)
        return;

    std::vector<ScalingCurve> curves = hit.curves;
    for (std::size_t old_id = 0; old_id < remap.size(); ++old_id)
        curves[static_cast<std::size_t>(remap[old_id])] =
            hit.curves[old_id];
    out.curves = std::move(curves);

    for (Wave &wave : out.plan.waves)
        for (WaveEntry &entry : wave.entries)
            entry.metaOp = remap[entry.metaOp];
    for (LevelAllocation &alloc : out.plan.allocations) {
        for (MetaOpId &id : alloc.metaOps)
            id = remap[id];
        for (MetaOpAllocation &p : alloc.plans)
            p.metaOp = remap[p.metaOp];
    }
}

PlannerOutput
ExecutionPlanner::plan(const MetaGraph &graph) const
{
    return pipeline(graph, nullptr);
}

PlannerOutput
ExecutionPlanner::replan(const MetaGraph &graph) const
{
    return pipeline(graph, &planCache());
}

PlannerOutput
ExecutionPlanner::pipeline(const MetaGraph &graph, PlanCache *memo) const
{
    const auto t0 = clock_type::now();
    auto last = t0;
    // Charge the wall-clock since the previous lap to @p phase.
    auto lap = [&last](double &phase) {
        const auto now = clock_type::now();
        phase += secondsBetween(last, now);
        last = now;
    };

    const std::uint32_t n = hw_.topology().numDevices();
    const std::uint64_t ctx = cache_context_;
    PlannerOutput out;
    ReplanStats &stats = out.replan;

    // ---- Diff (memo only): a workload value planned before in this
    // context is served from the cache with its ids remapped
    // positionally, and no stage below runs.
    GraphSignature sig;
    PlanCache::PlanPtr cached;
    if (memo != nullptr) {
        stats.totalLevels = static_cast<std::uint32_t>(graph.numLevels());
        sig = signatureOf(graph);
        cached = memo->findPlan(ctx, sig);
        if (cached != nullptr) {
            stats.fullHit = true;
            stats.reusedLevels = stats.totalLevels;
            stats.prefixWaves =
                static_cast<std::uint32_t>(cached->plan.waves.size());
            memo->addStats({.fullHits = 1,
                            .reusedLevels = graph.numLevels()});
            remapCachedPlan(*cached, graph, out);
        } else {
            memo->addStats({.misses = 1});
        }
        lap(out.phaseSeconds.diff);
    }

    std::vector<PlacementCommit> commit_log;
    if (cached == nullptr) {
        // §3.2: profile the oracle and fit one independent curve per
        // MetaOp. A curve is a pure function of the MetaOp's workload
        // shape and the cluster, so curves are served from the curve
        // memo by that shape.
        ScalabilityEstimator estimator(hw_, options_.estimator);
        const std::vector<MetaOp> &ops = graph.metaOps();
        out.curves = memoizedStage(
            memo, ctx, ops.size(),
            [&](std::size_t i) { return curveKeyOf(ops[i], n); },
            [&](std::size_t i) { return estimator.estimate(ops[i], n); },
            stats.curveHits);
        lap(out.phaseSeconds.estimation);

        // §3.3: per-MetaLevel MPSP allocation + bi-point
        // discretization. Levels are data-independent (each bisects
        // its own MPSP over the shared read-only curves) and are
        // served from the level memo by their shapes; a served level
        // is stored positionally and rebound to this graph's ids.
        ResourceAllocator allocator(graph, out.curves, n,
                                    options_.allocator);
        std::vector<LevelAllocation> allocations = memoizedStage(
            memo, ctx, graph.numLevels(),
            [&](std::size_t k) {
                PlanCache::LevelKey key;
                for (MetaOpId id : graph.level(k)) {
                    const MetaOp &m = graph.metaOp(id);
                    key.ops.emplace_back(curveKeyOf(m, n), m.numOps());
                }
                return key;
            },
            [&](std::size_t k) {
                return allocator.allocateLevel(graph.level(k));
            },
            stats.allocHits);
        if (memo != nullptr) {
            for (std::size_t k = 0; k < allocations.size(); ++k) {
                const std::vector<MetaOpId> &ids = graph.level(k);
                LevelAllocation &a = allocations[k];
                panicIf(a.plans.size() != ids.size(),
                        "replan: cached allocation shape mismatch");
                a.metaOps = ids;
                for (std::size_t i = 0; i < ids.size(); ++i)
                    a.plans[i].metaOp = ids[i];
            }
            stats.curveMisses = ops.size() - stats.curveHits;
            stats.allocMisses = graph.numLevels() - stats.allocHits;
            memo->addStats({.curveHits = stats.curveHits,
                            .curveMisses = stats.curveMisses,
                            .allocHits = stats.allocHits,
                            .allocMisses = stats.allocMisses});
        }
        lap(out.phaseSeconds.allocation);

        // §3.4: craft waves level by level, then merge. Always
        // recomputed — it is cheap and globally coupled (wave merging
        // reads every level).
        WavefrontScheduler scheduler(graph, out.curves, n,
                                     options_.scheduler);
        out.plan.waves = scheduler.scheduleAll(allocations);
        out.plan.numDevices = n;
        out.plan.allocations = std::move(allocations);
        out.plan.theoreticalOptimum = 0;
        for (const LevelAllocation &a : out.plan.allocations)
            out.plan.theoreticalOptimum += a.continuous.cStar;
        out.plan.estimatedSpan = out.plan.waves.empty()
            ? 0.0
            : out.plan.waves.back().start + out.plan.waves.back().duration;
        lap(out.phaseSeconds.scheduling);

        // §3.5: map wave entries onto devices. With a memo, the
        // committed prefix of the cached plan sharing the longest
        // level prefix with this workload is replayed, so only the
        // waves of perturbed levels are scored. Prefix reuse relies on
        // the Spindle strategy's state being wave-local; Sequential
        // threads a device cursor through every wave, so it re-places
        // from scratch.
        MemoryModel mem(options_.memory);
        DevicePlacement placement(hw_.topology(), hw_, mem,
                                  options_.placement);
        std::size_t resume_wave = 0;
        std::vector<PlacementCommit> prefix;
        std::size_t donor_levels = 0;
        PlanCache::PlanPtr donor;
        if (memo != nullptr &&
            options_.placement.strategy == PlacementStrategy::Spindle)
            donor = memo->bestPrefixDonor(ctx, sig, &donor_levels);
        if (donor != nullptr && donor_levels > 0) {
            while (resume_wave < out.plan.waves.size() &&
                   out.plan.waves[resume_wave].level <
                       static_cast<std::int32_t>(donor_levels))
                ++resume_wave;
            panicIf(resume_wave > donor->plan.waves.size(),
                    "replan: donor prefix shorter than matched levels");
            for (std::size_t w = 0; w < resume_wave; ++w) {
                Wave &dst = out.plan.waves[w];
                const Wave &src = donor->plan.waves[w];
                // The matched levels are value-identical, so the waves
                // the (deterministic) scheduler crafted for them must
                // agree shape for shape.
                panicIf(src.level != dst.level ||
                            src.entries.size() != dst.entries.size(),
                        "replan: donor prefix wave shape mismatch");
                for (std::size_t i = 0; i < dst.entries.size(); ++i) {
                    const WaveEntry &from = src.entries[i];
                    WaveEntry &to = dst.entries[i];
                    panicIf(from.n != to.n || from.opBegin != to.opBegin ||
                                from.numOps != to.numOps,
                            "replan: donor prefix entry mismatch");
                    to.devices = from.devices;
                }
            }
            for (const PlacementCommit &rec : donor->commitLog)
                if (rec.wave < resume_wave)
                    prefix.push_back(rec);
        }
        out.placement = placement.placeWithPrefix(
            graph, out.plan, resume_wave, prefix,
            memo != nullptr ? &commit_log : nullptr);
        lap(out.phaseSeconds.placement);

        if (resume_wave > 0) {
            stats.reusedLevels = static_cast<std::uint32_t>(donor_levels);
            stats.prefixWaves = static_cast<std::uint32_t>(resume_wave);
            memo->addStats({.reusedLevels = donor_levels});
        }
    }

    // Finalize: derive readiness now that entries are placed — with
    // the per device-group predecessor edges event dispatch relies
    // on — and validate against the paper's structural
    // invariants. On a full hit this re-checks the remap on the new
    // graph, keeping the byte-identity claim falsifiable every time.
    out.plan.annotateReadiness(graph);
    out.plan.validate(graph);
    lap(out.phaseSeconds.finalize);

    // Cache a freshly planned result for future arrivals. commit_log
    // is empty by construction when the memory-first fallback ran,
    // which is what disqualifies fallback plans as future prefix
    // donors.
    if (memo != nullptr && cached == nullptr) {
        PlanCache::CachedPlan entry;
        entry.sig = std::move(sig);
        entry.plan = out.plan;
        entry.curves = out.curves;
        entry.placement = out.placement;
        entry.levelIds.resize(graph.numLevels());
        for (std::size_t k = 0; k < graph.numLevels(); ++k)
            entry.levelIds[k] = graph.level(k);
        entry.commitLog = std::move(commit_log);
        memo->storePlan(ctx, std::move(entry));
        lap(out.phaseSeconds.diff);
    }

    out.planningSeconds = secondsBetween(t0, clock_type::now());
    return out;
}

} // namespace spindle
