#include "sim/trace.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace spindle {

void
Timeline::record(ExecRecord rec)
{
    panicIf(rec.end < rec.start, "Timeline: negative interval");
    makespan_ = std::max(makespan_, rec.end);
    total_flops_ += rec.flops;
    records_.push_back(std::move(rec));
}

std::vector<double>
Timeline::clusterFlopsSeries(std::size_t num_bins) const
{
    panicIf(num_bins == 0, "clusterFlopsSeries: zero bins");
    std::vector<double> bins(num_bins, 0.0);
    if (records_.empty() || makespan_ <= 0)
        return bins;
    const double bin_w = makespan_ / static_cast<double>(num_bins);
    for (const ExecRecord &r : records_) {
        if (r.flops <= 0 || r.end <= r.start)
            continue;
        const double rate = r.flops / (r.end - r.start);
        // Spread the record's FLOPs across the bins it overlaps.
        auto first = static_cast<std::size_t>(r.start / bin_w);
        auto last = static_cast<std::size_t>(r.end / bin_w);
        last = std::min(last, num_bins - 1);
        for (std::size_t b = first; b <= last; ++b) {
            const double lo = std::max(r.start, b * bin_w);
            const double hi = std::min(r.end, (b + 1) * bin_w);
            if (hi > lo)
                bins[b] += rate * (hi - lo) / bin_w;
        }
    }
    return bins;
}

std::vector<double>
Timeline::deviceBusyFraction(std::uint32_t num_devices) const
{
    std::vector<double> busy(num_devices, 0.0);
    if (makespan_ <= 0)
        return busy;
    for (const ExecRecord &r : records_) {
        panicIf(r.device >= num_devices,
                "deviceBusyFraction: device ", r.device,
                " out of range");
        busy[r.device] += r.end - r.start;
    }
    for (double &b : busy)
        b /= makespan_;
    return busy;
}

std::vector<double>
Timeline::deviceFlopsRate(std::uint32_t num_devices) const
{
    std::vector<double> rate(num_devices, 0.0);
    if (makespan_ <= 0)
        return rate;
    for (const ExecRecord &r : records_) {
        panicIf(r.device >= num_devices, "deviceFlopsRate: bad device");
        rate[r.device] += r.flops;
    }
    for (double &v : rate)
        v /= makespan_;
    return rate;
}

double
Timeline::metaOpUtilization(std::int32_t meta_op, double peak_flops) const
{
    panicIf(peak_flops <= 0, "metaOpUtilization: bad peak");
    double flops = 0, device_seconds = 0;
    for (const ExecRecord &r : records_) {
        if (r.metaOp != meta_op)
            continue;
        flops += r.flops;
        device_seconds += r.end - r.start;
    }
    if (device_seconds <= 0)
        return 0.0;
    return flops / (device_seconds * peak_flops);
}

double
Timeline::totalDeviceSeconds(ExecKind kind) const
{
    double total = 0;
    for (const ExecRecord &r : records_)
        if (r.kind == kind)
            total += r.end - r.start;
    return total;
}

} // namespace spindle
