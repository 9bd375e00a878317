/**
 * @file
 * Cluster simulator: the event-driven core that couples the
 * discrete-event queue, the execution timeline, and per-device
 * availability. The runtime engine and all baseline systems execute
 * their schedules through this facade, so every system is measured
 * on an identical substrate.
 *
 * One resource primitive plus one event hook: occupy() reserves a
 * device group synchronously and returns the completion time, and
 * notifyAt() schedules a handler no earlier than the queue's clock.
 * The runtime's WaveDispatcher builds its wave events from the two,
 * since a wave completes at the max over several reservations.
 */

#ifndef SPINDLE_SIM_SIMULATOR_H
#define SPINDLE_SIM_SIMULATOR_H

#include "hardware/device.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace spindle {

/**
 * Per-device occupancy simulator.
 *
 * occupy() is the single resource primitive: it reserves a device
 * group for a duration no earlier than a requested start, records
 * the interval in the timeline, and returns the completion time.
 * Wave dispatch, transmissions, and parameter sync all reduce to
 * sequences of occupy() calls; the event queue orders the dispatch
 * deterministically.
 */
class Simulator
{
  public:
    explicit Simulator(std::uint32_t num_devices);

    std::uint32_t numDevices() const { return num_devices_; }
    EventQueue &queue() { return queue_; }
    Timeline &timeline() { return timeline_; }
    const Timeline &timeline() const { return timeline_; }

    /** Earliest time device @p dev is free. */
    double deviceFree(DeviceId dev) const;

    /** Earliest time every device of @p group is free. */
    double groupFree(const DeviceSet &group) const;

    /**
     * Mark every device of @p devices as failed (idempotent): from
     * now on, occupy() rejects any reservation touching them (the
     * FaultInjector calls this when a fault event fires, then
     * decides whether the iteration must abort). Device ids must be
     * in range.
     */
    void failDevices(const DeviceSet &devices);

    /** True iff @p dev was marked failed. */
    bool isFailed(DeviceId dev) const;

    /** True iff any device of @p group was marked failed. */
    bool anyFailed(const DeviceSet &group) const;

    /** All failed device ids, ascending. */
    DeviceSet failedDevices() const;

    /**
     * Reserve @p group for @p duration seconds, starting at the
     * later of @p earliest and the group's free time. Total
     * @p flops are split evenly across the group for the trace.
     *
     * The whole group is validated before any state is touched, so
     * a bad device id can never leave the timeline and the
     * availability ledger inconsistent. Reservations touching a
     * failed device are rejected the same way: after a fault event
     * the dispatcher must have been halted (or replanned around the
     * dead devices), so reaching occupy() with one is an internal
     * error.
     *
     * @p label must be a static string literal (ExecRecord::label).
     *
     * @return the completion time of the interval
     */
    double occupy(const DeviceSet &group, double earliest,
                  double duration, ExecKind kind, double flops,
                  std::int32_t meta_op, const char *label);

    /**
     * Schedule @p action at the later of @p when and the queue's
     * current time — the monotone-clamped scheduling every event
     * handler (wave completions, chained dispatch) is built on.
     */
    void notifyAt(double when, EventQueue::Action action);

  private:
    std::uint32_t num_devices_;
    EventQueue queue_;
    Timeline timeline_;
    std::vector<double> free_at_;
    std::vector<bool> failed_;
    std::uint32_t num_failed_ = 0;
};

} // namespace spindle

#endif // SPINDLE_SIM_SIMULATOR_H
