/**
 * @file
 * Parameter-synchronization unit of the event-driven runtime (§3.6
 * step 4). Every parameter device group all-reduces its gradients as
 * soon as its own devices finish their backward work, so sync hides
 * under the compute of slower groups; groups on disjoint devices
 * overlap each other.
 *
 * Each group's all-reduce is scheduled through the collective
 * algorithm selected in EngineOptions::collective. The flat ring is
 * one reservation of the whole group; the hierarchical algorithm
 * dispatches its phases as *separate* simulator reservations —
 * intra-island reduce-scatter steps of disjoint islands overlap each
 * other, the cross-island leader ring is the only reservation
 * spanning islands, and the closing intra-island all-gathers overlap
 * again — so non-leader devices are free for other work during the
 * inter-island phase.
 *
 * Exposed-cost accounting: the bucketed all-reduce model hides
 * kSyncOverlapFraction of the backward span, down to the
 * unoverlappable kMinSyncFraction tail (hardware/collective.h). The
 * event schedule itself already hid part of the slowest group's
 * collective (groups start at their own devices' free time), so the
 * bucketed credit is charged only against what the schedule did NOT
 * hide, and the unoverlappable floor is a fraction of the slowest
 * group's whole all-reduce — not of the residual tail.
 */

#ifndef SPINDLE_RUNTIME_SYNC_EXECUTOR_H
#define SPINDLE_RUNTIME_SYNC_EXECUTOR_H

#include "hardware/collective.h"
#include "runtime/param_groups.h"
#include "sim/simulator.h"

namespace spindle {

/** What one sync pass yields. */
struct SyncStats
{
    /** Iteration end after the exposed sync cost. */
    double iterationEnd = 0;

    /** Exposed (un-hidden) sync cost charged to the iteration. */
    double exposedSync = 0;
};

/**
 * Executes the group-wise parameter synchronization on the
 * simulator: schedules each group's collective phases
 * (EngineOptions::collective) and models bucketed all-reduce overlap
 * with backward compute (kSyncOverlapFraction / kMinSyncFraction;
 * see the file comment for the charge order).
 */
class SyncExecutor
{
  public:
    SyncExecutor(Simulator &sim, const CollectiveModel &coll,
                 const ParameterGroupPool &pool, CollectiveKind kind);

    /**
     * Run the sync tail.
     *
     * @param fwd_end end of the forward phase (backward span start)
     * @param bwd_end end of the backward phase
     */
    SyncStats execute(double fwd_end, double bwd_end);

  private:
    Simulator &sim_;
    const CollectiveModel &coll_;
    const ParameterGroupPool &pool_;
    const CollectiveKind kind_;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_SYNC_EXECUTOR_H
