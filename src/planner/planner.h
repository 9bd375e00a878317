/**
 * @file
 * The Spindle execution planner (paper Fig. 2, left half): graph
 * contraction feeds the scalability estimator (§3.2), the resource
 * allocator (§3.3), the wavefront scheduler (§3.4) and device
 * placement (§3.5), producing the execution plan the runtime engine
 * consumes.
 *
 * One staged pipeline runs those stages once each, then finalizes
 * the plan: readiness edges are derived once, on the placed plan,
 * and the result is validated. Every stage is a pure function of the
 * workload's values and the (topology, hardware params, options)
 * context. The pipeline takes an optional memo — a PlanCache — and
 * that pointer is the only difference between the two entry points:
 *  - plan() runs the pipeline without a memo: every stage computes
 *    from scratch, and no signature, memo key or commit log is
 *    built. It is the byte-identity reference.
 *  - replan() serves dynamic arrivals/departures (Fig. 13) by
 *    running the pipeline with the planner's PlanCache. A workload
 *    whose value signature was planned before in the same
 *    (topology, hardware params, options) context skips the stages
 *    and is returned with its MetaOp ids remapped; on a miss the
 *    stages reuse cached scaling curves, level allocations, and the
 *    committed placement prefix of the best cached neighbor — so
 *    replan cost scales with the perturbation, not the cluster.
 *    replan() output is byte-identical to plan() on the same graph
 *    (pinned by planner_equivalence_test).
 *
 * Every stage runs serially on the calling thread. Planning
 * parallelism lives across requests: PlanService
 * (service/plan_service.h) runs one serial planner per worker, all
 * sharing one thread-safe PlanCache.
 */

#ifndef SPINDLE_PLANNER_PLANNER_H
#define SPINDLE_PLANNER_PLANNER_H

#include <memory>

#include "cost/estimator.h"
#include "planner/placement.h"
#include "planner/plan_cache.h"
#include "planner/resource_allocator.h"
#include "planner/wavefront_scheduler.h"

namespace spindle {

/** Aggregated options of every planning stage. */
struct PlannerOptions
{
    EstimatorOptions estimator;
    AllocatorOptions allocator;
    SchedulerOptions scheduler;
    PlacementOptions placement;

    /** Memory accounting regime used by placement (ZeRO flags). */
    MemoryParams memory;

    /**
     * Plan cache consulted by replan() (non-owning; must outlive the
     * planner). nullptr gives the planner a lazily created private
     * cache. Sharing one cache between planners is safe, including
     * planners replanning concurrently on different threads —
     * PlanCache is internally synchronized (striped locks), and
     * entries are keyed by a (topology fingerprint, HardwareParams
     * fingerprint, options fingerprint) context, so near-identical
     * workloads from different tenants dedupe into full hits while
     * different contexts — including one cluster under different
     * HardwareParams — never collide. Excluded from the context
     * fingerprint itself.
     */
    PlanCache *cache = nullptr;
};

/** Wall-clock spent in each planning phase, seconds. */
struct PlannerPhaseSeconds
{
    double estimation = 0; ///< §3.2 curve profiling + fitting
    double allocation = 0; ///< §3.3 MPSP + discretization
    double scheduling = 0; ///< §3.4 wavefront crafting
    double placement = 0;  ///< §3.5 device mapping
    double finalize = 0;   ///< readiness annotation + validation
    /** replan(): signature build, cache probe, full-hit id remap and
     *  the store of a freshly planned result. */
    double diff = 0;
};

/**
 * Phase names, in PlannerPhaseSeconds member order. Benchmarks and
 * baselines refer to phases by these names (e.g. the
 * `serial_tail_phase` field of BENCH_planner.json) rather than by
 * positional index, which would silently shift if a phase were ever
 * added or reordered.
 */
inline constexpr const char *kPlannerPhaseNames[] = {
    "estimation", "allocation", "scheduling", "placement", "finalize",
    "diff",
};

inline constexpr std::size_t kNumPlannerPhases =
    sizeof(kPlannerPhaseNames) / sizeof(kPlannerPhaseNames[0]);

/** Name of phase @p index, or "unknown" when out of range. */
inline const char *
plannerPhaseName(std::size_t index)
{
    return index < kNumPlannerPhases ? kPlannerPhaseNames[index]
                                     : "unknown";
}

/** What one replan() call reused. All-zero for plan(). */
struct ReplanStats
{
    /** Whole plan served from the cache (ids remapped, no pipeline
     *  stage ran). */
    bool fullHit = false;

    std::uint32_t totalLevels = 0;

    /** Leading levels whose placement was replayed, not re-scored
     *  (== totalLevels on a full hit). */
    std::uint32_t reusedLevels = 0;

    /** Placement waves covered by the replayed prefix. */
    std::uint32_t prefixWaves = 0;

    /** Memo lookups of the estimation and allocation stages: a
     *  MetaOp (level) sharing its key with an earlier one of the
     *  same graph is a hit. */
    std::uint64_t curveHits = 0;
    std::uint64_t curveMisses = 0;
    std::uint64_t allocHits = 0;
    std::uint64_t allocMisses = 0;
};

/** Everything the planner produces for one workload. */
struct PlannerOutput
{
    ExecutionPlan plan;

    /** Scaling curves per MetaOp (kept for analysis and Fig. 4). */
    std::vector<ScalingCurve> curves;

    PlacementResult placement;

    /** Wall-clock spent planning, seconds (Fig. 12). */
    double planningSeconds = 0;

    /** Per-phase breakdown of planningSeconds (scaling benches). */
    PlannerPhaseSeconds phaseSeconds;

    /** Cache reuse accounting of the replan() call that produced
     *  this output (all-zero when plan() produced it). */
    ReplanStats replan;
};

/**
 * End-to-end planner facade over a hardware oracle. One instance
 * plans one workload at a time; planners on different threads may
 * share a PlanCache (see PlannerOptions::cache).
 */
class ExecutionPlanner
{
  public:
    explicit ExecutionPlanner(const HardwareModel &hw,
                              PlannerOptions options = {});

    /**
     * Plan one training iteration of the workload in @p graph on
     * the full cluster. The returned plan is validated against the
     * paper's structural invariants before being handed out. Always
     * from scratch; never touches the plan cache.
     */
    PlannerOutput plan(const MetaGraph &graph) const;

    /**
     * Incremental replan for dynamic arrivals/departures: plan
     * @p graph, reusing every cached result its value signature
     * licenses (see the file comment). Byte-identical to plan() on
     * the same graph.
     */
    PlannerOutput replan(const MetaGraph &graph) const;

    const PlannerOptions &options() const { return options_; }
    const HardwareModel &hardware() const { return hw_; }

    /** The cache replan() consults: options().cache when set, else
     *  this planner's private cache (created on first use). */
    PlanCache &planCache() const;

  private:
    /**
     * The staged pipeline behind plan() (@p memo null) and replan()
     * (@p memo = planCache()); see the file comment.
     */
    PlannerOutput pipeline(const MetaGraph &graph, PlanCache *memo) const;

    void remapCachedPlan(const PlanCache::CachedPlan &hit,
                         const MetaGraph &graph, PlannerOutput &out) const;

    const HardwareModel &hw_;
    PlannerOptions options_;

    /** Private cache backing planCache() when options_.cache is
     *  null (mutable: replan() is logically const — its output is
     *  independent of cache state). */
    mutable std::unique_ptr<PlanCache> owned_cache_;

    /** Cache context: topology ⊕ HardwareParams ⊕ options
     *  fingerprints. */
    std::uint64_t cache_context_ = 0;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_PLANNER_H
