/**
 * @file
 * Execution timeline: the per-device busy-interval record every
 * utilization figure of the paper is computed from (Fig. 1 lower,
 * Fig. 9a cluster utilization, Fig. 9b per-device / per-MetaOp
 * utilization).
 */

#ifndef SPINDLE_SIM_TRACE_H
#define SPINDLE_SIM_TRACE_H

#include <type_traits>
#include <vector>

#include "hardware/device.h"

namespace spindle {

/** What a device was doing during a recorded interval. */
enum class ExecKind : std::uint8_t
{
    Compute,      ///< forward/backward MetaOp execution
    Transmission, ///< inter-wave send/recv or copy
    Sync,         ///< parameter (gradient) synchronization
};

/** One busy interval of one device. */
struct ExecRecord
{
    DeviceId device = 0;
    double start = 0;
    double end = 0;
    ExecKind kind = ExecKind::Compute;

    /** Useful FLOPs this device retires in the interval (0 for comm). */
    double flops = 0;

    /** MetaOp id this interval belongs to; -1 if not applicable. */
    std::int32_t metaOp = -1;

    /**
     * Static string literal naming the work, owned by the code that
     * emits the record (never null, never freed):
     *  - "fwd", "bwd": WaveDispatcher compute;
     *  - "send_recv": TransmissionExecutor;
     *  - "param_sync" (flat ring), "param_sync_rs", "param_sync_xr",
     *    "param_sync_ag" (hierarchical phases): the CollectiveModel
     *    schedule the SyncExecutor replays.
     */
    const char *label = "";
};

static_assert(std::is_trivially_copyable_v<ExecRecord>);

/**
 * Append-only execution trace with the aggregations the paper plots.
 */
class Timeline
{
  public:
    void record(ExecRecord rec);

    /** Capacity for @p n records, so recording does not reallocate. */
    void reserve(std::size_t n) { records_.reserve(n); }

    const std::vector<ExecRecord> &records() const { return records_; }
    bool empty() const { return records_.empty(); }

    /** Latest interval end (0 when empty). */
    double makespan() const { return makespan_; }

    /** Total useful FLOPs across all records. */
    double totalFlops() const { return total_flops_; }

    /**
     * Cluster-wide achieved FLOPs/s sampled into @p num_bins equal
     * bins over [0, makespan] (Fig. 1 lower / Fig. 9a series).
     */
    std::vector<double> clusterFlopsSeries(std::size_t num_bins) const;

    /**
     * Per-device busy fraction over the makespan, counting intervals
     * of any kind (Fig. 9b left; size = @p num_devices).
     */
    std::vector<double> deviceBusyFraction(std::uint32_t num_devices) const;

    /**
     * Achieved compute utilization of one MetaOp: its FLOPs divided
     * by (device-seconds it occupied x peak FLOPs/s) (Fig. 9b right).
     */
    double metaOpUtilization(std::int32_t meta_op, double peak_flops) const;

    /** Sum of interval durations of a given kind (device-seconds). */
    double totalDeviceSeconds(ExecKind kind) const;

  private:
    std::vector<ExecRecord> records_;
    double makespan_ = 0;
    double total_flops_ = 0;
};

} // namespace spindle

#endif // SPINDLE_SIM_TRACE_H
