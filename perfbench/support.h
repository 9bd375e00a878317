/**
 * @file
 * Shared pieces of the repo benchmark: run configuration, the metric
 * ledger printed as the result line, percentile statistics, in-memory
 * spans exported as Chrome trace-event JSON, and the byte encoding
 * used to compare a plan against its reference.
 *
 * Everything here drives the library through its public header only.
 */

#ifndef SPINDLE_PERFBENCH_SUPPORT_H
#define SPINDLE_PERFBENCH_SUPPORT_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spindle/spindle.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Command-line configuration of one benchmark run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;

    /** Start of main(); setup_s runs from here to the first timed
     *  operation. */
    Clock::time_point started = Clock::now();

    /** Chrome trace-event output of a traced run. */
    std::string traceOut;
};

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run reports back to main(). */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Timed operations behind the latency percentiles. */
    std::uint64_t samples = 0;

    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Linear-interpolated percentile (q in [0, 1]); 0 when empty. */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * One closed span: a layer call timed from outside, in nanoseconds
 * relative to the recorder's origin. Spans of one operation share
 * `op`; `parent` names the enclosing span ("" for an operation).
 */
struct Span
{
    const char *name = "";
    const char *parent = "";
    const char *tag = "";
    std::uint32_t tid = 0;
    std::uint64_t op = 0;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
};

/** In-memory span buffer of the measuring thread; exported at exit. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Record [start, end) and return a copy of the span. */
    Span record(const char *name, const char *parent, std::uint32_t tid,
                std::uint64_t op, Clock::time_point start,
                Clock::time_point end, const char *tag = "")
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.tag = tag;
        s.tid = tid;
        s.op = op;
        s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        start - origin_)
                        .count();
        s.durNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count();
        spans_.push_back(s);
        return s;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Run-level facts stamped into the info line and the trace file. */
struct MachineFacts
{
    unsigned nproc = 0;
    double effectiveThreads = 0;
    std::string buildType;
    std::string commit;
};

/**
 * Write @p log as Chrome trace-event JSON (loads in Perfetto and
 * chrome://tracing). Returns false on I/O failure.
 */
bool writeChromeTrace(const std::string &path, const SpanLog &log,
                      const RunConfig &cfg, const MachineFacts &facts);

/**
 * Byte encoding of everything a plan request returns that must be
 * reproducible: the plan (waves, entries, devices, readiness edges,
 * allocations, estimated span) and the placement result (peak bytes,
 * comm estimates, fallback). Timing fields are excluded. Two outputs
 * are byte-identical iff their encodings compare equal.
 */
std::string encodePlan(const spindle::ExecutionPlan &plan,
                       const spindle::PlacementResult &placement);

/** Peak resident set of this process, MiB. */
double peakRssMiB();

/**
 * Effective parallelism of this machine: @p threads copies of a fixed
 * spin loop run concurrently, compared with one copy alone
 * (threads * t1 / tN). Below nproc on CPU-quota-limited hosts.
 */
double calibrateEffectiveThreads(unsigned threads);

/** Workload entry points (run the whole measured part of one run). */
RunResult runPlanWorkload(const RunConfig &cfg, SpanLog &log);
RunResult runServiceStorm(const RunConfig &cfg, SpanLog &log);

/** True when @p name is one of the plan workloads. */
bool isPlanWorkload(const std::string &name);

} // namespace perfbench

#endif // SPINDLE_PERFBENCH_SUPPORT_H
