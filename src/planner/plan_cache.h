/**
 * @file
 * Plan cache + level-diff layer for incremental replanning.
 *
 * The dynamicity story (paper Fig. 13) replans the whole workload at
 * every task arrival/departure, so replan latency scales with the
 * *cluster* even when the perturbation is one task. This layer keys
 * previously planned results by value so `ExecutionPlanner::replan()`
 * can reuse everything an arrival did not perturb:
 *
 *  - **Signatures** capture the exact values the planning pipeline
 *    reads from a MetaGraph — positionally, never by id or name — so
 *    two graphs that plan byte-identically compare equal even when
 *    their MetaOp ids or task names differ (e.g. the same task mix
 *    rebuilt after a departure).
 *  - **PlanCache** stores three tiers per (topology fingerprint,
 *    HardwareParams fingerprint, planner-options fingerprint)
 *    context: scaling curves per workload shape (§3.2), level
 *    allocations per LevelSignature (§3.3), and whole placed plans
 *    per GraphSignature, whose comm-first placement commit logs
 *    double as replayable prefixes for the partial-restart
 *    machinery (§3.5).
 *
 * Everything cached is value-transparent: a hit returns bits the
 * uncached pipeline would also have produced, which is what lets
 * replan() keep planner_equivalence_test's frozen-reference,
 * byte-identity discipline.
 *
 * **Thread safety.** The cache is safe for concurrent lookups and
 * stores from any number of threads: contexts are sharded over
 * striped mutexes (the StripedMemo pattern from
 * common/sharded_memo.h), whole-plan hits are returned as
 * shared_ptrs so a concurrent eviction can never pull an entry out
 * from under a reader, and the curve/allocation tiers hand out
 * copies. Counters (including evictions) are atomics kept exact
 * under the stripe locks. This is what lets many planners — e.g.
 * every PlanService worker — share one cache through
 * PlannerOptions::cache and replan() concurrently: racing misses on
 * the same signature may compute the plan twice, but both
 * computations produce identical bytes (the pipeline is
 * deterministic) and each caller returns the plan it computed, so
 * even the racers agree bit for bit.
 */

#ifndef SPINDLE_PLANNER_PLAN_CACHE_H
#define SPINDLE_PLANNER_PLAN_CACHE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cost/scaling_curve.h"
#include "graph/meta_graph.h"
#include "planner/execution_plan.h"
#include "planner/placement.h"

namespace spindle {

/**
 * Value identity of one MetaOp as the planning pipeline consumes it.
 * Ids and names are deliberately absent: MetaOps are identified
 * positionally (level index, index within level), which is exactly
 * how the pipeline's deterministic tie-breaks see them (within a
 * level, MetaOp ids ascend with position).
 */
struct MetaOpSignature
{
    /** Member workload shape — the §3.2 estimator's only inputs. */
    OpType type = OpType::Custom;
    TensorShape input;
    double flopsFwdPerOp = 0;
    double paramBytesPerOp = 0;
    double activationBytes = 0;

    /** Operator count L_m (allocator + scheduler input). */
    std::int64_t numOps = 0;

    /**
     * Per-member-operator (paramDedupKey, param bytes), in member
     * order. Placement's per-device memory state is keyed by the raw
     * paramDedupKey value (graph/operator.h), and its floating-point
     * summation order over that map depends on the raw key values —
     * so byte identity requires the sequences to match exactly, not
     * merely describe the same sharing structure.
     */
    struct MemberParam
    {
        std::int64_t key = 0;
        double bytes = 0;
        bool operator==(const MemberParam &) const = default;
    };
    std::vector<MemberParam> memberParams;

    /**
     * Inbound flows in MetaGraph::edges() iteration order, sources
     * identified positionally. Edge order matters: placement
     * accumulates inflow comm seconds in it.
     */
    struct Inflow
    {
        std::int32_t srcLevel = -1;
        std::int32_t srcPos = -1;
        double flowBytes = 0;
        bool operator==(const Inflow &) const = default;
    };
    std::vector<Inflow> inflows;

    bool operator==(const MetaOpSignature &) const = default;
};

/** Positional value identity of one MetaLevel. */
struct LevelSignature
{
    std::vector<MetaOpSignature> metaOps;
    bool operator==(const LevelSignature &) const = default;
};

/** Positional value identity of a whole MetaGraph. */
struct GraphSignature
{
    std::vector<LevelSignature> levels;

    /** Hash over all levels, for cheap bucketing; equality always
     *  falls back to the deep comparison below. */
    std::uint64_t hash = 0;

    bool equalLevels(const GraphSignature &o) const
    {
        return levels == o.levels;
    }

    /** Number of leading levels on which the two signatures agree. */
    std::size_t commonPrefixLevels(const GraphSignature &o) const;
};

/** Build the (positional, id- and name-free) signature of @p graph. */
GraphSignature signatureOf(const MetaGraph &graph);

/**
 * Multi-tier cache of planning results, partitioned by context
 * fingerprint (topology fingerprint mixed with fingerprints of the
 * HardwareParams and of the planning options). See the file comment
 * for the tiers and the value-transparency contract.
 */
class PlanCache
{
  public:
    /** One cached, fully placed plan. */
    struct CachedPlan
    {
        GraphSignature sig;

        /** Placed, readiness-annotated plan in the donor graph's ids. */
        ExecutionPlan plan;

        /** Curves indexed by the donor graph's MetaOp ids. */
        std::vector<ScalingCurve> curves;

        PlacementResult placement;

        /** Donor MetaOp ids by (level, position) — the remap key. */
        std::vector<std::vector<MetaOpId>> levelIds;

        /**
         * Comm-first placement commit log, replayable as a prefix.
         * Empty when the plan needed the memory-first fallback (such
         * logs would mix scoring regimes and are unusable).
         */
        std::vector<PlacementCommit> commitLog;
    };

    /** Key of one cached scaling curve (plus max_devices context). */
    struct CurveKey
    {
        OpType type = OpType::Custom;
        TensorShape input;
        double flopsFwdPerOp = 0;
        double paramBytesPerOp = 0;
        double activationBytes = 0;
        std::uint32_t maxDevices = 0;
        bool operator==(const CurveKey &) const = default;
    };

    /** Key of one cached level allocation: per-position workload
     *  shape plus operator count (everything §3.3 reads). */
    struct LevelKey
    {
        std::vector<std::pair<CurveKey, std::int64_t>> ops;
        bool operator==(const LevelKey &) const = default;
    };

    /** Cumulative counters across every lookup (reported by the
     *  arrival-storm bench). */
    struct Stats
    {
        std::uint64_t fullHits = 0;
        std::uint64_t misses = 0;
        std::uint64_t curveHits = 0;
        std::uint64_t curveMisses = 0;
        std::uint64_t allocHits = 0;
        std::uint64_t allocMisses = 0;
        std::uint64_t reusedLevels = 0;
        std::uint64_t evictions = 0;
    };

    /** Shared-ownership view of a cached plan: stays valid after a
     *  concurrent eviction drops the cache's own reference. */
    using PlanPtr = std::shared_ptr<const CachedPlan>;

    /** @param max_plans_per_context FIFO bound on the whole-plan tier
     *  (curve/allocation tiers are small and unbounded). */
    explicit PlanCache(std::size_t max_plans_per_context = 32);

    /** Cached plan whose signature equals @p sig, or nullptr. */
    PlanPtr findPlan(std::uint64_t ctx, const GraphSignature &sig) const;

    /**
     * Cached plan sharing the longest non-empty level prefix with
     * @p sig among entries that carry a replayable commit log; ties
     * go to the most recently stored entry. @p prefix_levels gets
     * the matched level count. nullptr when nothing matches.
     */
    PlanPtr bestPrefixDonor(std::uint64_t ctx, const GraphSignature &sig,
                            std::size_t *prefix_levels) const;

    /** Insert a plan, evicting the oldest entry past the bound. A
     *  plan whose signature is already cached for @p ctx replaces
     *  nothing and is dropped (racing misses stay bounded). */
    void storePlan(std::uint64_t ctx, CachedPlan plan);

    /** Copy of the cached curve for @p key, if any. */
    std::optional<ScalingCurve> find(std::uint64_t ctx,
                                     const CurveKey &key) const;
    void store(std::uint64_t ctx, const CurveKey &key,
               const ScalingCurve &curve);

    /** Hit values are stored positionally: callers must remap the
     *  contained MetaOp ids onto their own graph's level ids. */
    std::optional<LevelAllocation> find(std::uint64_t ctx,
                                        const LevelKey &key) const;
    void store(std::uint64_t ctx, const LevelKey &key,
               const LevelAllocation &alloc);

    /** Consistent snapshot of the cumulative counters. */
    Stats stats() const;

    /** Atomically add every (nonzero) field of @p delta to the
     *  counters — how replan() publishes its per-call accounting. */
    void addStats(const Stats &delta);

  private:
    struct Context
    {
        std::deque<PlanPtr> plans; ///< newest at the back
        std::vector<std::pair<CurveKey, ScalingCurve>> curves;
        std::vector<std::pair<LevelKey, LevelAllocation>> levels;
    };

    /** Contexts sharded over lock stripes by fingerprint. One
     *  context's state lives entirely inside one stripe, so every
     *  per-context operation takes exactly one lock. */
    struct Stripe
    {
        mutable std::mutex mu;
        std::map<std::uint64_t, Context> contexts;
    };

    static constexpr std::size_t kStripes = 16;

    Stripe &stripeOf(std::uint64_t ctx) const;

    /** The tier of @p c holding values keyed by the key's type. */
    static auto &tier(Context &c, const CurveKey &) { return c.curves; }
    static auto &tier(Context &c, const LevelKey &) { return c.levels; }

    /**
     * Locked linear probe of @p key's tier in context @p ctx. With
     * @p value null: a copy of the cached value, if any. Otherwise
     * store *@p value unless the key is cached already (a racing
     * miss stored identical bytes) and return nothing.
     */
    template <typename Key, typename Value>
    std::optional<Value> probeTier(std::uint64_t ctx, const Key &key,
                                   const Value *value) const;

    mutable std::array<Stripe, kStripes> stripes_;
    std::size_t max_plans_;

    /** Counter fields mirror Stats one for one. */
    struct AtomicStats
    {
        std::atomic<std::uint64_t> fullHits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> curveHits{0};
        std::atomic<std::uint64_t> curveMisses{0};
        std::atomic<std::uint64_t> allocHits{0};
        std::atomic<std::uint64_t> allocMisses{0};
        std::atomic<std::uint64_t> reusedLevels{0};
        std::atomic<std::uint64_t> evictions{0};
    };
    mutable AtomicStats stats_;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_PLAN_CACHE_H
