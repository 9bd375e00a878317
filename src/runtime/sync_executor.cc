#include "runtime/sync_executor.h"

#include <algorithm>

namespace spindle {

SyncExecutor::SyncExecutor(Simulator &sim, const CollectiveModel &coll,
                           const ParameterGroupPool &pool,
                           CollectiveKind kind)
    : sim_(sim), coll_(coll), pool_(pool), kind_(kind)
{
}

SyncStats
SyncExecutor::execute(double fwd_end, double bwd_end)
{
    const double bwd_span = bwd_end - fwd_end;
    double sync_end = bwd_end;
    // Slowest group's whole (analytic) collective: the base of the
    // unoverlappable-tail floor.
    double whole_max = 0;
    for (const ParamGroup &g : pool_.groups()) {
        if (g.devices.size() < 2)
            continue;
        const CollectiveSchedule sched = coll_.allReduceSchedule(
            g.bytes, g.devices, kind_, g.decomposition());
        whole_max = std::max(whole_max, sched.seconds());
        // The group starts at its own devices' free time — as soon as
        // its own backward predecessors finished. Stages are barriers
        // within the group: a stage starts when every step of the
        // previous stage ended; steps of one stage touch disjoint
        // devices (distinct islands' intra phases, or the sharded
        // algorithm's concurrent per-rail inter rings) and overlap as
        // separate same-start reservations.
        double stage_start = 0.0;
        for (const auto &stage : sched.stages) {
            double stage_end = stage_start;
            for (const CollectiveStep &step : stage) {
                const double end =
                    sim_.occupy(step.devices, stage_start, step.seconds,
                                ExecKind::Sync, 0, -1, step.label);
                stage_end = std::max(stage_end, end);
            }
            stage_start = stage_end;
        }
        sync_end = std::max(sync_end, stage_start);
    }

    // Bucketed all-reduce hides part of the exposed cost under the
    // backward compute (kSyncOverlapFraction), down to the
    // unoverlappable tail (kMinSyncFraction). The event schedule
    // already hid part of the slowest group's collective under
    // backward compute (early release). Charge order: that hidden
    // share consumes the bucketed credit first, only the remainder
    // may reduce the residual tail, and the unoverlappable floor is
    // kMinSyncFraction of the *whole* slowest all-reduce — not of the
    // residual tail.
    const double sync_raw = sync_end - bwd_end;
    const double hidden = std::max(0.0, whole_max - sync_raw);
    const double credit =
        std::max(0.0, kSyncOverlapFraction * bwd_span - hidden);
    const double sync_eff = std::min(
        sync_raw, std::max(kMinSyncFraction * whole_max, sync_raw - credit));

    SyncStats stats;
    stats.exposedSync = sync_eff;
    stats.iterationEnd = bwd_end + sync_eff;
    return stats;
}

} // namespace spindle
