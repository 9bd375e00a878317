#include "sim/simulator.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

Simulator::Simulator(std::uint32_t num_devices)
    : num_devices_(num_devices), free_at_(num_devices, 0.0),
      failed_(num_devices, false)
{
    fatalIf(num_devices == 0, "Simulator: empty cluster");
}

void
Simulator::failDevices(const DeviceSet &devices)
{
    for (DeviceId d : devices)
        panicIf(d >= num_devices_,
                "failDevices: bad device ", d);
    for (DeviceId d : devices) {
        if (!failed_[d]) {
            failed_[d] = true;
            ++num_failed_;
        }
    }
}

bool
Simulator::isFailed(DeviceId dev) const
{
    panicIf(dev >= num_devices_, "isFailed: bad device ", dev);
    return failed_[dev];
}

bool
Simulator::anyFailed(const DeviceSet &group) const
{
    if (num_failed_ == 0)
        return false;
    for (DeviceId d : group)
        if (isFailed(d))
            return true;
    return false;
}

DeviceSet
Simulator::failedDevices() const
{
    DeviceSet out;
    out.reserve(num_failed_);
    for (DeviceId d = 0; d < num_devices_; ++d)
        if (failed_[d])
            out.push_back(d);
    return out;
}

double
Simulator::deviceFree(DeviceId dev) const
{
    panicIf(dev >= num_devices_, "deviceFree: bad device ", dev);
    return free_at_[dev];
}

double
Simulator::groupFree(const DeviceSet &group) const
{
    panicIf(group.empty(), "groupFree: empty group");
    double t = 0;
    for (DeviceId d : group)
        t = std::max(t, deviceFree(d));
    return t;
}

double
Simulator::occupy(const DeviceSet &group, double earliest,
                  double duration, ExecKind kind, double flops,
                  std::int32_t meta_op, const std::string &label)
{
    panicIf(group.empty(), "occupy: empty group");
    panicIf(duration < 0, "occupy: negative duration");
    // Validate the whole group before touching any state, so a bad
    // device id mid-group cannot leave the timeline and free_at_
    // inconsistent.
    for (DeviceId d : group)
        panicIf(d >= num_devices_, "occupy: bad device ", d);
    if (num_failed_ > 0) {
        for (DeviceId d : group)
            panicIf(failed_[d],
                    "occupy: device ", d, " failed at t=",
                    queue_.now(), " but \"", label,
                    "\" still reserves it — the dispatcher "
                    "must abort or replan after a fault");
    }
    const double start = std::max(earliest, groupFree(group));
    const double end = start + duration;
    const double flops_each = flops / static_cast<double>(group.size());
    for (DeviceId d : group) {
        timeline_.record({d, start, end, kind, flops_each, meta_op, label});
        free_at_[d] = end;
    }
    return end;
}

double
Simulator::request(const DeviceSet &group, double earliest,
                   double duration, ExecKind kind, double flops,
                   std::int32_t meta_op, const std::string &label,
                   Completion on_done)
{
    panicIf(!on_done, "request: null completion");
    const double end =
        occupy(group, earliest, duration, kind, flops, meta_op, label);
    notifyAt(end, [on_done = std::move(on_done), end] { on_done(end); });
    return end;
}

void
Simulator::notifyAt(double when, EventQueue::Action action)
{
    queue_.schedule(std::max(when, queue_.now()), std::move(action));
}

void
Simulator::reset()
{
    queue_.reset();
    timeline_ = Timeline();
    std::fill(free_at_.begin(), free_at_.end(), 0.0);
    std::fill(failed_.begin(), failed_.end(), false);
    num_failed_ = 0;
}

} // namespace spindle
