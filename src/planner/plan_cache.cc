#include "planner/plan_cache.h"

#include "common/hash.h"
#include "common/logging.h"

namespace spindle {

namespace {

std::uint64_t
hashSignature(const GraphSignature &sig)
{
    std::uint64_t h = kFnvOffset;
    h = mix(h, static_cast<std::uint64_t>(sig.levels.size()));
    for (const LevelSignature &level : sig.levels) {
        h = mix(h, static_cast<std::uint64_t>(level.metaOps.size()));
        for (const MetaOpSignature &m : level.metaOps) {
            h = mix(h, static_cast<std::uint64_t>(m.type));
            h = mix(h, static_cast<std::uint64_t>(m.input.batch));
            h = mix(h, static_cast<std::uint64_t>(m.input.seq));
            h = mix(h, static_cast<std::uint64_t>(m.input.hidden));
            h = mix(h, m.flopsFwdPerOp);
            h = mix(h, m.paramBytesPerOp);
            h = mix(h, m.activationBytes);
            h = mix(h, static_cast<std::uint64_t>(m.numOps));
            for (const MetaOpSignature::MemberParam &p : m.memberParams) {
                h = mix(h, static_cast<std::uint64_t>(p.key));
                h = mix(h, p.bytes);
            }
            for (const MetaOpSignature::Inflow &f : m.inflows) {
                h = mix(h, static_cast<std::uint64_t>(f.srcLevel));
                h = mix(h, static_cast<std::uint64_t>(f.srcPos));
                h = mix(h, f.flowBytes);
            }
        }
    }
    return h;
}

} // namespace

std::size_t
GraphSignature::commonPrefixLevels(const GraphSignature &o) const
{
    const std::size_t bound = std::min(levels.size(), o.levels.size());
    std::size_t k = 0;
    while (k < bound && levels[k] == o.levels[k])
        ++k;
    return k;
}

GraphSignature
signatureOf(const MetaGraph &graph)
{
    GraphSignature sig;
    sig.levels.resize(graph.numLevels());

    // Positional address of every MetaOp: (level, index within
    // level). Within a level, ids ascend with position, which is
    // what makes positional identity line up with every id-ordered
    // tie-break in the pipeline.
    std::vector<std::pair<std::int32_t, std::int32_t>> pos_of(
        graph.numMetaOps(), {-1, -1});
    for (std::size_t k = 0; k < graph.numLevels(); ++k) {
        const std::vector<MetaOpId> &ids = graph.level(k);
        for (std::size_t p = 0; p < ids.size(); ++p)
            pos_of[ids[p]] = {static_cast<std::int32_t>(k),
                              static_cast<std::int32_t>(p)};
    }

    for (std::size_t k = 0; k < graph.numLevels(); ++k) {
        const std::vector<MetaOpId> &ids = graph.level(k);
        sig.levels[k].metaOps.reserve(ids.size());
        for (MetaOpId id : ids) {
            const MetaOp &m = graph.metaOp(id);
            MetaOpSignature s;
            s.type = m.type;
            s.input = m.input;
            s.flopsFwdPerOp = m.flopsFwdPerOp;
            s.paramBytesPerOp = m.paramBytesPerOp;
            s.activationBytes = m.activationBytes;
            s.numOps = m.numOps();
            s.memberParams.reserve(m.ops.size());
            for (OpId op_id : m.ops) {
                const OperatorDesc &op = graph.base().op(op_id);
                s.memberParams.push_back(
                    {paramDedupKey(op), op.paramBytes});
            }
            sig.levels[k].metaOps.push_back(std::move(s));
        }
    }

    // Inbound flows, recorded in edge-iteration order per target.
    for (const MetaEdge &e : graph.edges()) {
        const auto [sl, sp] = pos_of[e.src];
        const auto [dl, dp] = pos_of[e.dst];
        sig.levels[dl].metaOps[dp].inflows.push_back(
            {sl, sp, e.flowBytes});
    }

    sig.hash = hashSignature(sig);
    return sig;
}

PlanCache::PlanCache(std::size_t max_plans_per_context)
    : max_plans_(std::max<std::size_t>(1, max_plans_per_context))
{
}

PlanCache::Stripe &
PlanCache::stripeOf(std::uint64_t ctx) const
{
    // Contexts are already FNV-mixed fingerprints, so the low bits
    // spread well; re-mix once to decouple from kStripes anyway.
    return stripes_[(ctx * 0x9e3779b97f4a7c15ull >> 32) % kStripes];
}

PlanCache::PlanPtr
PlanCache::findPlan(std::uint64_t ctx, const GraphSignature &sig) const
{
    Stripe &s = stripeOf(ctx);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.contexts.find(ctx);
    if (it == s.contexts.end())
        return nullptr;
    // Newest first: the storm pattern revisits recent task mixes.
    for (auto plan = it->second.plans.rbegin();
         plan != it->second.plans.rend(); ++plan)
        if ((*plan)->sig.hash == sig.hash &&
            (*plan)->sig.equalLevels(sig))
            return *plan;
    return nullptr;
}

PlanCache::PlanPtr
PlanCache::bestPrefixDonor(std::uint64_t ctx, const GraphSignature &sig,
                           std::size_t *prefix_levels) const
{
    *prefix_levels = 0;
    Stripe &s = stripeOf(ctx);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.contexts.find(ctx);
    if (it == s.contexts.end())
        return nullptr;
    PlanPtr best;
    for (auto plan = it->second.plans.rbegin();
         plan != it->second.plans.rend(); ++plan) {
        if ((*plan)->commitLog.empty())
            continue; // fallback plans cannot donate a replay prefix
        const std::size_t common = sig.commonPrefixLevels((*plan)->sig);
        if (common > *prefix_levels) {
            *prefix_levels = common;
            best = *plan;
        }
    }
    return best;
}

void
PlanCache::storePlan(std::uint64_t ctx, CachedPlan plan)
{
    // Allocate the node outside the lock; only the list splice and
    // the duplicate scan run under it.
    PlanPtr entry = std::make_shared<CachedPlan>(std::move(plan));
    Stripe &s = stripeOf(ctx);
    std::lock_guard<std::mutex> lk(s.mu);
    Context &context = s.contexts[ctx];
    // Concurrent misses on one signature both plan and both store;
    // the bytes are identical, so keeping the first (and not aging
    // out a distinct neighbor to hold a duplicate) is value-free.
    for (const PlanPtr &existing : context.plans)
        if (existing->sig.hash == entry->sig.hash &&
            existing->sig.equalLevels(entry->sig))
            return;
    context.plans.push_back(std::move(entry));
    while (context.plans.size() > max_plans_) {
        context.plans.pop_front();
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
}

template <typename Key, typename Value>
std::optional<Value>
PlanCache::probeTier(std::uint64_t ctx, const Key &key,
                     const Value *value) const
{
    Stripe &s = stripeOf(ctx);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.contexts.find(ctx);
    if (it == s.contexts.end()) {
        if (value == nullptr)
            return std::nullopt;
        it = s.contexts.try_emplace(ctx).first;
    }
    auto &entries = tier(it->second, key);
    for (const auto &[cached_key, cached] : entries)
        if (cached_key == key)
            return value == nullptr ? std::optional<Value>(cached)
                                    : std::nullopt;
    if (value != nullptr)
        entries.emplace_back(key, *value);
    return std::nullopt;
}

std::optional<ScalingCurve>
PlanCache::find(std::uint64_t ctx, const CurveKey &key) const
{
    return probeTier<CurveKey, ScalingCurve>(ctx, key, nullptr);
}

void
PlanCache::store(std::uint64_t ctx, const CurveKey &key,
                 const ScalingCurve &curve)
{
    probeTier(ctx, key, &curve);
}

std::optional<LevelAllocation>
PlanCache::find(std::uint64_t ctx, const LevelKey &key) const
{
    return probeTier<LevelKey, LevelAllocation>(ctx, key, nullptr);
}

void
PlanCache::store(std::uint64_t ctx, const LevelKey &key,
                 const LevelAllocation &alloc)
{
    probeTier(ctx, key, &alloc);
}

PlanCache::Stats
PlanCache::stats() const
{
    Stats out;
    out.fullHits = stats_.fullHits.load(std::memory_order_relaxed);
    out.misses = stats_.misses.load(std::memory_order_relaxed);
    out.curveHits = stats_.curveHits.load(std::memory_order_relaxed);
    out.curveMisses = stats_.curveMisses.load(std::memory_order_relaxed);
    out.allocHits = stats_.allocHits.load(std::memory_order_relaxed);
    out.allocMisses = stats_.allocMisses.load(std::memory_order_relaxed);
    out.reusedLevels =
        stats_.reusedLevels.load(std::memory_order_relaxed);
    out.evictions = stats_.evictions.load(std::memory_order_relaxed);
    return out;
}

void
PlanCache::addStats(const Stats &delta)
{
    auto add = [](std::atomic<std::uint64_t> &c, std::uint64_t v) {
        if (v != 0)
            c.fetch_add(v, std::memory_order_relaxed);
    };
    add(stats_.fullHits, delta.fullHits);
    add(stats_.misses, delta.misses);
    add(stats_.curveHits, delta.curveHits);
    add(stats_.curveMisses, delta.curveMisses);
    add(stats_.allocHits, delta.allocHits);
    add(stats_.allocMisses, delta.allocMisses);
    add(stats_.reusedLevels, delta.reusedLevels);
    add(stats_.evictions, delta.evictions);
}

} // namespace spindle
