/**
 * @file
 * Device placement (paper §3.5): map every wave entry onto concrete
 * devices, trading inter-wave communication against per-device
 * memory balance.
 *
 * Guidelines implemented, as in the paper:
 *  - intra-device-island placement is preferred for each entry and
 *    for the data flows between entries across waves;
 *  - when islands cannot hold everything, entries with higher
 *    communication volume get the better (intra-island) placement
 *    first;
 *  - per-device memory is tracked (parameters deduplicated by
 *    ParamKey, so parameter-sharing MetaOps landing on the same
 *    device store them once) and balanced; an entry that would
 *    exceed capacity triggers a restart of the placement with
 *    memory-first scoring — the constrained-depth backtracking of
 *    the paper collapsed into a two-phase search. The restart
 *    resumes from the first infeasible wave (committed earlier
 *    waves are replayed, not re-scored), keeping the fallback cheap
 *    at 512+ GPU scale; a full restart remains the last resort.
 *
 * **Stages.** One placement pass (DevicePlacement::tryPlace) is a
 * short loop over named stages in placement.cc:
 *  1. *Entry setup* (EntryContext): built once per entry — its
 *     parallel config and activation share, the slice's parameter
 *     signature, its distinct keys with their max shares in
 *     first-seen order, the inflows with one FlowSource each, the TP
 *     island penalty and the residency rows. It also owns the score
 *     terms (parameter affinity, island penalty), each written once.
 *  2. *Position pass*: per-inflow link ranks, then per free position
 *     the device's would-be load and residency rows — probed once per
 *     device class, at its first free position — island and
 *     rank-counter addends.
 *  3. *Band build*: per-band prefix state (island changes, minimum
 *     load, link-rank prefix counts, the window equal to a source).
 *  4. *Chunked sweep with pruning*: band windows, chunk by chunk,
 *     then explicit extras are scored under one selection rule
 *     (Selection: comm plus weighted memory pressure, or memory first
 *     in the fallback) and reduced to the winner.
 *  5. *Commit* (Attempt::commit): a device class the window holds
 *     whole is updated in place; the window's members of any other
 *     class move to a copy of it, which is then updated. Records the
 *     MetaOp's last slice.
 * The Sequential strategy replaces stages 2–4 by its one window.
 * Replaying a logged prefix builds the same entry setup and calls the
 * same commit, then adds the logged comm; place() is placeWithPrefix
 * with an empty prefix, so the fallback cascade exists once.
 *
 * Candidate windows come from generateWindows() under the configured
 * WindowPolicy (see window_generator.h). The placer scores them
 * using incremental per-band state (link-rank / residency /
 * island-change prefix counts and a sliding-window maximum over
 * per-device loads) so scoring stays O(1) per window after an
 * O(free-list) setup per entry. `ContiguousRuns` reproduces the
 * historical placer bit for bit (planner_equivalence_test);
 * `IslandAware` decouples window shape from device numbering.
 *
 * **One flow oracle.** Inter-wave flows are priced through the
 * runtime's resolver, FlowSource (hardware/collective.h), on every
 * fabric: each (island, in-source) pair resolves to one link, and a
 * window costs the seconds of its best-ranked device's link — exactly
 * CollectiveModel::flowTime, the best of the same per-device links,
 * which prices the committed flows' inter-island attribution.
 *
 * **Device classes (4096-GPU scaling).** Devices that received the
 * same commits in the same order store identical parameter maps and
 * activation sums, so the attempt keeps that state once per *class*
 * (map, activation sum, cached total, member count) and one class id
 * per device. A plan ends with few classes (12 of 2048 devices on
 * QWen-VAL 70B over mixed islands, 79 of 4096 on CLIP-10), so a
 * commit touches a few maps instead of one per window device, and
 * the position pass probes an entry's keys once per class instead of
 * once per free device. Residency rows come from the same probe:
 * every free member of a class pushes its position onto the rows the
 * class holds, in ascending position order (for bands), and an
 * explicit window reads the rows from its members' class probes.
 *
 * **Why a split keeps byte identity.** A device's total sums its
 * shares in its map's bucket order, and that order shows in the bits
 * of peakBytes. A split *copy-constructs* the map: the copy keeps the
 * node order, bucket count and rehash state, so the split devices'
 * later insertions land exactly where their own per-device maps would
 * have put them, and every device sums in its own map's order.
 * Re-inserting the entries into a fresh map would reorder them
 * (pinned by planner_equivalence_test's
 * SplitDevicesKeepTheirSummationOrder).
 *
 * **Admissible band pruning**: before scoring a chunk of band
 * windows, the sweep derives an exact lower bound on every window's
 * primary score from the band state — minimum load along the band
 * for the memory term, the cheapest link present anywhere in the
 * chunk's position range per inflow,
 * residency over the whole range for the affinity term, and
 * min(0, penalty) for the island penalty — through the same score
 * terms and selection rule as a window. Each bound term is ≤ its
 * counterpart and is accumulated in the same structural order as the
 * real score, so by monotonicity of rounded addition the bound never
 * exceeds any window's primary. A chunk is skipped only when its
 * bound is *strictly* above the best primary scored so far; the scan
 * replaces its best only on a strictly better (primary, secondary),
 * so no window of a pruned chunk could have won and the emitted plan
 * is byte-identical to an unpruned scan (pinned by
 * planner_equivalence_test against its unpruned reference placement,
 * up to 1024 GPUs).
 *
 * A Sequential strategy (each entry takes the next consecutive
 * device ids, no topology awareness — by design independent of the
 * island structure and of any renumbering — and no capacity check)
 * is provided for the Fig. 10 ablation.
 */

#ifndef SPINDLE_PLANNER_PLACEMENT_H
#define SPINDLE_PLANNER_PLACEMENT_H

#include <vector>

#include "planner/execution_plan.h"
#include "planner/window_generator.h"
#include "runtime/memory_model.h"

namespace spindle {

/** Placement strategy selector. */
enum class PlacementStrategy : std::uint8_t
{
    Spindle,    ///< locality- and memory-aware greedy (§3.5)
    Sequential, ///< consecutive-devices baseline (Fig. 10 ablation)
};

/**
 * Usable fraction of device HBM before placement rejects an entry:
 * the headroom left for what the memory model does not charge
 * (framework buffers, fragmentation).
 */
inline constexpr double kMemorySlack = 0.92;

/** Placement tunables. */
struct PlacementOptions
{
    PlacementStrategy strategy = PlacementStrategy::Spindle;

    /**
     * Candidate-window generation policy for the Spindle strategy.
     * ContiguousRuns is the historical default; IslandAware emits
     * per-island runs plus deliberate cross-island unions and is the
     * right choice on heterogeneous or permuted-numbering clusters.
     */
    WindowPolicy windows = WindowPolicy::ContiguousRuns;

    /** Weight converting relative memory imbalance into seconds in
     *  the placement score (heuristic trade-off knob). */
    double memoryWeight = 1e-3;
};

/**
 * One committed wave entry of a placement pass: positional entry
 * coordinates plus the comm seconds the pass charged to it. A logged
 * comm-first pass can be replayed bit-identically from these records
 * — the partial fallback restart replays the feasible prefix of a
 * failed pass, and incremental replanning (planner/plan_cache.h)
 * replays the prefix of a previously cached plan whose leading
 * levels an arrival did not perturb.
 */
struct PlacementCommit
{
    std::uint32_t wave = 0;
    std::uint32_t entry = 0;
    double comm = 0;        ///< scored comm charged to the entry
    double interIsland = 0; ///< inter-island share of the above
};

/** Result of placing a plan. */
struct PlacementResult
{
    /** Peak bytes per device (params + optimizer + activations). */
    std::vector<double> peakBytes;

    /** Estimated total inter-wave transmission seconds. */
    double estimatedCommSeconds = 0;

    /**
     * Estimated seconds of comm crossing the inter-island fabric,
     * attributed shard by shard: each flow's seconds scaled by the
     * fraction of destination devices whose island holds no source
     * device, plus the intra-island preference penalties of TP
     * groups that straddle. Deliberately finer-grained than the
     * best-pair flowTime pricing of estimatedCommSeconds, which
     * cannot see the difference between an island-aligned window
     * and one that merely touches the source's island.
     */
    double interIslandCommSeconds = 0;

    /** True when the memory-first fallback pass was needed. */
    bool usedMemoryFallback = false;

    /** Wave index the fallback pass restarted from (0 = full
     *  restart; meaningful only when usedMemoryFallback). */
    std::size_t fallbackRestartWave = 0;
};

/**
 * Greedy wave-by-wave placer.
 */
class DevicePlacement
{
  public:
    DevicePlacement(const ClusterTopology &topo, const HardwareModel &hw,
                    const MemoryModel &mem, PlacementOptions options = {});

    /**
     * Fill WaveEntry::devices for every wave of @p plan.
     * fatal()s when even memory-first placement cannot fit.
     *
     * When @p commit_log is non-null it receives the commit records
     * of the successful comm-first pass, replayable as a placement
     * prefix; it is left empty when the memory-first fallback was
     * needed (a fallback log would mix scoring regimes).
     */
    PlacementResult
    place(const MetaGraph &graph, ExecutionPlan &plan,
          std::vector<PlacementCommit> *commit_log = nullptr) const;

    /**
     * place() with a reused prefix: waves before @p resume_wave must
     * already carry the device sets a comm-first pass committed, and
     * @p prefix must be that pass's commit records for those waves.
     * The prefix is replayed (state committed, never re-scored) and
     * scoring starts at @p resume_wave; the full fallback cascade of
     * place() applies beyond the prefix, so the filled plan is
     * byte-identical to a from-scratch place(). Used by
     * ExecutionPlanner::replan().
     */
    PlacementResult
    placeWithPrefix(const MetaGraph &graph, ExecutionPlan &plan,
                    std::size_t resume_wave,
                    const std::vector<PlacementCommit> &prefix,
                    std::vector<PlacementCommit> *commit_log = nullptr) const;

  private:
    /** Internal alias; see PlacementCommit. */
    using CommitRecord = PlacementCommit;

    /**
     * One placement pass. Records of @p replay for waves before
     * @p resume_wave are replayed (state committed, no scoring);
     * waves from @p resume_wave on are scored (memory-first when
     * @p memory_first). Scored commits are appended to @p log when
     * non-null. On failure, the index of the first infeasible wave
     * lands in @p fail_wave, and the log holds the feasible prefix.
     */
    bool tryPlace(const MetaGraph &graph, ExecutionPlan &plan,
                  bool memory_first, PlacementResult &result,
                  std::size_t resume_wave,
                  const std::vector<CommitRecord> &replay,
                  std::vector<CommitRecord> *log,
                  std::size_t *fail_wave) const;

    const ClusterTopology &topo_;
    const HardwareModel &hw_;
    const MemoryModel &mem_;
    PlacementOptions options_;
};

} // namespace spindle

#endif // SPINDLE_PLANNER_PLACEMENT_H
