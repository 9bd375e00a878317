/**
 * @file
 * The repo benchmark program. Usage:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>] [--commit <id>]
 *
 * Runs one workload (clip10-4096, qwen70b-islands-2048,
 * service-storm-256), checks every output against its reference, and
 * prints as its last stdout line one JSON object with `correct`,
 * `attempted`, `failed` and `metrics`: the end-to-end metrics when
 * untraced, the per-layer metrics when traced. The line before it is
 * an `info` object with the machine facts and sample count. Exits 1
 * when any operation failed or diverged, 2 on a usage error.
 * perfbench/run.py builds this binary and is the normal entry point.
 */

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <type_traits>

#include "support.h"

namespace perfbench {

using namespace spindle;

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run. */
constexpr MetricSpec kEndToEnd[] = {
    {"latency_ms_p50", "ms"},   {"latency_ms_p90", "ms"},
    {"throughput_ops_s", "ops/s"}, {"sim_iter_per_s", "1/s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics, printed by every traced run; a layer the
 *  workload does not exercise reads 0. */
constexpr MetricSpec kPerLayer[] = {
    {"graph.contract_ms", "ms"},
    {"cost.estimate_ms", "ms"},
    {"planner.allocate_ms", "ms"},
    {"planner.schedule_ms", "ms"},
    {"planner.waves", "count"},
    {"planner.place_ms", "ms"},
    {"planner.memory_fallback", "count"},
    {"planner.finalize_ms", "ms"},
    {"planner.plan_ms_p50", "ms"},
    {"plan_cache.full_hit_frac", "fraction"},
    {"plan_cache.curve_hit_frac", "fraction"},
    {"plan_cache.alloc_hit_frac", "fraction"},
    {"plan_cache.reused_levels", "count"},
    {"plan_cache.evictions", "count"},
    {"service.hit_ms_p50", "ms"},
    {"service.miss_ms_p50", "ms"},
    {"service.submit_ms_p90", "ms"},
    {"service.failed", "count"},
    {"runtime.transmissions_ms", "ms"},
    {"runtime.transmissions", "count"},
    {"runtime.transmission_bytes", "bytes"},
    {"runtime.param_groups_ms", "ms"},
    {"runtime.param_groups", "count"},
    {"runtime.sync_bytes", "bytes"},
    {"runtime.memory_ms", "ms"},
    {"runtime.peak_mem_frac", "fraction"},
    {"runtime.engine_ms", "ms"},
    {"runtime.dispatch_sync_ms", "ms"},
    {"sim.iteration_ms", "ms"},
    {"sim.fwd_bwd_ms", "ms"},
    {"sim.sync_ms", "ms"},
    {"sim.send_recv_ms", "ms"},
    {"sim.idle_frac", "fraction"},
    {"sim.timeline_records", "count"},
    {"baselines.deepspeed_iteration_ms", "ms"},
    {"baselines.speedup_vs_deepspeed", "x"},
    {"trace.dark_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
    {"fail_frac", "fraction"},
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

template <typename T>
void
put(std::string &out, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

template <typename T>
void
putVec(std::string &out, const std::vector<T> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    put(out, v.size());
    out.append(reinterpret_cast<const char *>(v.data()), v.size() * sizeof(T));
}

std::uint64_t
spin(std::uint64_t iters)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

double
timeSpins(unsigned threads, std::uint64_t iters)
{
    std::atomic<std::uint64_t> sink{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] { sink += spin(iters); });
    for (std::thread &t : pool)
        t.join();
    return secondsSince(t0);
}

void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--commit <id>]\n",
                 msg);
    std::exit(2);
}

} // namespace

std::string
encodePlan(const ExecutionPlan &plan, const PlacementResult &placement)
{
    std::string out;
    put(out, plan.numDevices);
    put(out, plan.estimatedSpan);
    put(out, plan.theoreticalOptimum);
    put(out, plan.waves.size());
    for (const Wave &w : plan.waves) {
        put(out, w.index);
        put(out, w.level);
        put(out, w.stream);
        put(out, w.start);
        put(out, w.duration);
        putVec(out, w.predecessors);
        put(out, w.entries.size());
        for (const WaveEntry &e : w.entries) {
            put(out, e.metaOp);
            put(out, e.n);
            put(out, e.opBegin);
            put(out, e.numOps);
            put(out, e.duration);
            putVec(out, e.devices);
        }
    }
    put(out, plan.allocations.size());
    for (const LevelAllocation &a : plan.allocations) {
        putVec(out, a.metaOps);
        put(out, a.continuous.cStar);
        putVec(out, a.continuous.nStar);
        put(out, a.plans.size());
        for (const MetaOpAllocation &p : a.plans) {
            put(out, p.metaOp);
            put(out, p.tuples.size());
            for (const AslTuple &t : p.tuples) {
                put(out, t.n);
                put(out, t.start);
                put(out, t.l);
            }
        }
    }
    putVec(out, placement.peakBytes);
    put(out, placement.estimatedCommSeconds);
    put(out, placement.interIslandCommSeconds);
    put(out, placement.usedMemoryFallback);
    put(out, placement.fallbackRestartWave);
    return out;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
calibrateEffectiveThreads(unsigned threads)
{
    constexpr std::uint64_t kIters = 30'000'000;
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep)
        ratios.push_back(threads * timeSpins(1, kIters) /
                         timeSpins(threads, kIters));
    return median(ratios);
}

bool
writeChromeTrace(const std::string &path, const SpanLog &log,
                 const RunConfig &cfg, const MachineFacts &facts)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {"
                 "\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
                 "\"effective_threads\": %s, \"build_type\": %s, "
                 "\"commit\": %s},\n"
                 "\"traceEvents\": [\n"
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"args\": {\"name\": %s}}",
                 jsonString(cfg.workload).c_str(),
                 static_cast<unsigned long long>(cfg.seed), facts.nproc,
                 jsonNumber(facts.effectiveThreads).c_str(),
                 jsonString(facts.buildType).c_str(),
                 jsonString(facts.commit).c_str(),
                 jsonString("perfbench " + cfg.workload).c_str());
    for (const Span &s : log.spans()) {
        const std::string name = s.name;
        const std::string cat = name.substr(0, name.find('.'));
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"op\": %llu, \"parent\": \"%s\", "
                     "\"tag\": \"%s\"}}",
                     s.name, cat.c_str(), s.tid, s.startNs * 1e-3,
                     s.durNs * 1e-3, static_cast<unsigned long long>(s.op),
                     s.parent, s.tag);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg; // stamps the start of set-up
    MachineFacts facts;
    facts.buildType = PERFBENCH_BUILD_TYPE;
    facts.commit = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            cfg.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            cfg.trace = value == "1";
        } else if (flag == "--trace-out") {
            cfg.traceOut = value;
        } else if (flag == "--commit") {
            facts.commit = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(cfg.seconds > 0))
        usage("--seconds must be > 0");
    const bool storm = cfg.workload == "service-storm-256";
    if (!storm && !isPlanWorkload(cfg.workload))
        usage(("unknown workload " + cfg.workload).c_str());

    SpanLog log(Clock::now());
    RunResult res = storm ? runServiceStorm(cfg, log)
                          : runPlanWorkload(cfg, log);

    facts.nproc = std::thread::hardware_concurrency();
    facts.effectiveThreads = calibrateEffectiveThreads(facts.nproc);

    std::vector<Metric> metrics;
    auto find = [&](const char *name) -> const Metric * {
        for (const Metric &m : res.metrics)
            if (m.name == name)
                return &m;
        return nullptr;
    };
    if (!cfg.trace) {
        res.add("peak_rss_mb", peakRssMiB(), "MiB");
        for (const MetricSpec &spec : kEndToEnd) {
            const Metric *m = find(spec.name);
            if (m == nullptr || m->unit != spec.unit) {
                std::fprintf(stderr, "perfbench: metric %s missing\n",
                             spec.name);
                return 2;
            }
            metrics.push_back(*m);
        }
    } else {
        res.add("fail_frac",
                res.attempted == 0
                    ? 1.0
                    : static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted),
                "fraction");
        for (const MetricSpec &spec : kPerLayer) {
            const Metric *m = find(spec.name);
            metrics.push_back(m != nullptr ? *m
                                           : Metric{spec.name, 0.0, spec.unit});
        }
        if (!cfg.traceOut.empty() &&
            !writeChromeTrace(cfg.traceOut, log, cfg, facts))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         cfg.traceOut.c_str());

        std::printf("%-34s %12s\n", "layer metric", "value");
        for (const Metric &m : metrics)
            std::printf("%-34s %12.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

    const bool correct = res.failed == 0 && res.attempted > 0;
    std::printf("{\"info\": {\"workload\": %s, \"seed\": %llu, "
                "\"trace\": %d, \"samples\": %llu, \"nproc\": %u, "
                "\"effective_threads\": %s, \"build_type\": %s, "
                "\"commit\": %s}}\n",
                jsonString(cfg.workload).c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
                static_cast<unsigned long long>(res.samples), facts.nproc,
                jsonNumber(facts.effectiveThreads).c_str(),
                jsonString(facts.buildType).c_str(),
                jsonString(facts.commit).c_str());
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(res.attempted) +
                       ", \"failed\": " + std::to_string(res.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
