/**
 * @file
 * Planner scaling sweep: full execution-planning wall-clock from 8
 * to 256 GPUs on the heavy seed workloads (CLIP-10, OFASys-7 and the
 * 70B QWen-VAL of Tab. 2), with the per-phase breakdown (estimation /
 * allocation / scheduling / placement seconds) attached as counters,
 * plus sampled 1024/2048/4096-GPU CLIP-10 points probing the scale
 * envelope, a 2048-GPU QWen-VAL 70B point on mixed 12/4-GPU islands
 * (the IslandAware catch-all path) and a 512-GPU memory-fallback
 * stress lane (the
 * Placement.MemoryFallback512GpuStress scenario as a gated
 * wall-clock record). The 4096-GPU CLIP-10 point and the 2048-GPU
 * QWen-VAL 70B island point also simulate their plans and record
 * engine_seconds, the fastest Engine::run of the iteration, so the
 * engine is budgeted where it costs the most: the timeline of the
 * largest cluster, and the ZeRO-3 memory ledger and sync groups.
 *
 * The paper claims planning completes "within 3 seconds" at 64 GPUs;
 * the incremental placement scoring and memoized cost model keep the
 * 256-GPU points in the low milliseconds. Every point plans serially
 * on the calling thread. Results are written as BENCH_planner.json
 * (path overridable via SPINDLE_BENCH_JSON) for trajectory tracking
 * and the CI perf smoke job — see scripts/check_bench_regression.py
 * (the wall-clock budgets and the 512-GPU fallback lane).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>

#include "bench_util.h"

using namespace spindle;
using namespace spindle::bench;

namespace {

BenchJsonWriter &
jsonLog()
{
    static BenchJsonWriter writer;
    return writer;
}

/** Engine::run repetitions at an engine-budgeted point; the fastest
 *  is recorded. */
constexpr int kEngineRuns = 3;

struct WorkloadCase
{
    const char *name;
    ComputationGraph graph;
    bool zeroShardParams = false;

    /** Mixed 12/4-GPU islands + island-aware windows instead of the
     *  homogeneous 8-GPU nodes (same total GPU count). */
    bool hetero = false;

    /** GPU count of the point that also budgets the engine (0: none). */
    std::uint32_t engineGpus = 0;
};

void
planAtScale(benchmark::State &state, const WorkloadCase &wl)
{
    const auto nodes = static_cast<std::uint32_t>(state.range(0));
    ClusterTopology topo =
        wl.hetero ? makeHeteroCluster(nodes) : makeCluster(nodes);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(wl.graph);

    PlannerOptions options;
    // >= 30B models need ZeRO-3-style parameter sharding to fit
    // 80 GB devices (as real deployments do).
    options.memory.zeroShardParams = wl.zeroShardParams;
    if (wl.hetero)
        options.placement.windows = WindowPolicy::IslandAware;
    ExecutionPlanner planner(hw, options);

    // Keep the *fastest* iteration: the CI gate compares these
    // numbers against a budget, and the minimum is immune to one-off
    // scheduler stalls on shared runners (any single iteration is
    // not).
    PlannerOutput best;
    bool first = true;
    for (auto _ : state) {
        PlannerOutput out = planner.plan(meta);
        benchmark::DoNotOptimize(out.plan.estimatedSpan);
        if (first || out.planningSeconds < best.planningSeconds) {
            best = std::move(out);
            first = false;
        }
    }

    const std::uint32_t gpus = nodes * 8;

    // At the engine-budgeted point, simulating the planned iteration
    // is budgeted too (fastest of a few runs, like plan_seconds).
    double engine_seconds = -1;
    if (gpus == wl.engineGpus) {
        Engine engine(hw, options.memory);
        for (int rep = 0; rep < kEngineRuns; ++rep) {
            const auto start = std::chrono::steady_clock::now();
            IterationResult result = engine.run(meta, best.plan);
            const double seconds = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
            benchmark::DoNotOptimize(result.iterationSeconds);
            if (engine_seconds < 0 || seconds < engine_seconds)
                engine_seconds = seconds;
        }
    }

    // Which planning phase is the serial tail at this scale — the
    // argmax of the per-phase breakdown (first wins on ties). At the
    // 1024-GPU-and-up samples this is what decides where the next
    // scaling PR spends its effort. The JSON records carry the phase
    // *name* (kPlannerPhaseNames) so the artifact stays
    // self-describing if phases are ever added or reordered; the
    // benchmark counter stays numeric (counters are doubles).
    const double phases[] = {best.phaseSeconds.estimation,
                             best.phaseSeconds.allocation,
                             best.phaseSeconds.scheduling,
                             best.phaseSeconds.placement,
                             best.phaseSeconds.finalize};
    std::uint32_t tail = 0;
    for (std::uint32_t i = 1; i < std::size(phases); ++i)
        if (phases[i] > phases[tail])
            tail = i;

    state.counters["gpus"] = gpus;
    state.counters["plan_seconds"] = best.planningSeconds;
    state.counters["estimation_seconds"] = best.phaseSeconds.estimation;
    state.counters["allocation_seconds"] = best.phaseSeconds.allocation;
    state.counters["scheduling_seconds"] = best.phaseSeconds.scheduling;
    state.counters["placement_seconds"] = best.phaseSeconds.placement;
    state.counters["finalize_seconds"] = best.phaseSeconds.finalize;
    state.counters["serial_tail_phase"] = tail;
    if (engine_seconds >= 0)
        state.counters["engine_seconds"] = engine_seconds;

    std::vector<std::pair<std::string, BenchField>> fields = {
        {"gpus", static_cast<double>(gpus)},
        {"plan_seconds", best.planningSeconds},
        {"estimation_seconds", best.phaseSeconds.estimation},
        {"allocation_seconds", best.phaseSeconds.allocation},
        {"scheduling_seconds", best.phaseSeconds.scheduling},
        {"placement_seconds", best.phaseSeconds.placement},
        {"finalize_seconds", best.phaseSeconds.finalize},
        {"serial_tail_phase", plannerPhaseName(tail)},
        {"waves", static_cast<double>(best.plan.waves.size())}};
    if (engine_seconds >= 0)
        fields.push_back({"engine_seconds", engine_seconds});
    jsonLog().record(strCat(wl.name, "/gpus=", gpus), std::move(fields));
}

/**
 * The promoted 512-GPU stress lane (satellite of the 4096-GPU scaling
 * work): the exact Placement.MemoryFallback512GpuStress scenario —
 * QWen-VAL on 64 8-GPU nodes, device memory tightened along a
 * pressure ladder until the comm-first pass fails mid-plan and the
 * memory-first fallback takes the partial restart — run as a
 * wall-clock benchmark. The record carries the fallback facts
 * (used_fallback, fallback_restart_wave) as value gates plus
 * plan_seconds for the wall-clock budget, all gated on every runner
 * (scripts/check_bench_regression.py).
 */
void
placementStress512(benchmark::State &state)
{
    ComputationGraph g = buildQwenVal({});
    MetaGraph meta = contractGraph(g);

    ClusterConfig cfg;
    cfg.numNodes = 64;
    cfg.gpusPerNode = 8;
    PlannerOptions options;

    // Find the pressure rung that forces the fallback (same ladder as
    // the ctest stress), once, outside the timed loop.
    double peak = 0;
    {
        ClusterTopology roomy(cfg);
        HardwareModel hw_roomy(roomy);
        PlannerOutput baseline =
            ExecutionPlanner(hw_roomy, options).plan(meta);
        for (double b : baseline.placement.peakBytes)
            peak = std::max(peak, b);
    }
    bool fell_back = false;
    for (double frac : {0.999, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7}) {
        cfg.device.memoryBytes = peak * frac / kMemorySlack;
        ClusterTopology tight(cfg);
        HardwareModel hw(tight);
        PlannerOutput probe = ExecutionPlanner(hw, options).plan(meta);
        if (probe.placement.usedMemoryFallback) {
            fell_back = true;
            break;
        }
    }

    // Time the fallback-taking plan; keep the fastest iteration (the
    // budget gate logic of planAtScale).
    ClusterTopology tight(cfg);
    HardwareModel hw(tight);
    ExecutionPlanner planner(hw, options);
    PlannerOutput best;
    bool first = true;
    for (auto _ : state) {
        PlannerOutput out = planner.plan(meta);
        benchmark::DoNotOptimize(out.plan.estimatedSpan);
        if (first || out.planningSeconds < best.planningSeconds) {
            best = std::move(out);
            first = false;
        }
    }

    state.counters["used_fallback"] =
        fell_back && best.placement.usedMemoryFallback ? 1 : 0;
    state.counters["fallback_restart_wave"] =
        static_cast<double>(best.placement.fallbackRestartWave);
    state.counters["plan_seconds"] = best.planningSeconds;

    jsonLog().record(
        "QWenVAL-stress/gpus=512",
        {{"gpus", 512.0},
         {"used_fallback",
          fell_back && best.placement.usedMemoryFallback ? 1.0 : 0.0},
         {"fallback_restart_wave",
          static_cast<double>(best.placement.fallbackRestartWave)},
         {"plan_seconds", best.planningSeconds}});
}

const WorkloadCase clip10{"CLIP-10",
                          buildMultitaskClip({.numTasks = 10}),
                          /*zeroShardParams=*/false, /*hetero=*/false,
                          /*engineGpus=*/4096};
const WorkloadCase ofa7{"OFASys-7", buildOfasys({.numTasks = 7})};
const WorkloadCase qwen70{
    "QWenVAL-70B",
    buildQwenVal({.size = QwenValConfig::Size::B70, .batch = 128}),
    /*zeroShardParams=*/true};
const WorkloadCase clip10_hetero{"CLIP-10-hetero",
                                 buildMultitaskClip({.numTasks = 10}),
                                 /*zeroShardParams=*/false,
                                 /*hetero=*/true};
const WorkloadCase qwen70_hetero{
    "QWenVAL-70B-hetero",
    buildQwenVal({.size = QwenValConfig::Size::B70, .batch = 128}),
    /*zeroShardParams=*/true, /*hetero=*/true, /*engineGpus=*/2048};

} // namespace

// 8..256 GPUs (the arg is the node count), plus sampled
// 1024/2048/4096-GPU points on the heaviest workload (128/256/512
// nodes) probing the scale envelope — serial_tail_phase on those
// records names the phase the next scaling push has to attack. QWen-VAL 70B
// needs >= 64 GPUs to fit 80 GB devices even with ZeRO-3 sharding,
// so its sweep starts there. The hetero case plans the same GPU
// counts over mixed 12/4-GPU islands with island-aware window
// generation.
BENCHMARK_CAPTURE(planAtScale, CLIP_10Tasks, clip10)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(placementStress512)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(planAtScale, OFASys_7Tasks, ofa7)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(planAtScale, QWenVAL_70B, qwen70)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(planAtScale, CLIP_10Tasks_hetero, clip10_hetero)
    ->Arg(2)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
// The 70B model on 2048 GPUs of mixed islands: every entry outgrows
// every island, so IslandAware placement runs its greedy catch-all.
BENCHMARK_CAPTURE(planAtScale, QWenVAL_70B_hetero, qwen70_hetero)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const char *path = std::getenv("SPINDLE_BENCH_JSON");
    const std::string json_path =
        path != nullptr ? path : "BENCH_planner.json";
    if (!jsonLog().empty()) {
        if (jsonLog().writeFile(json_path))
            std::cout << "wrote " << json_path << "\n";
        else
            std::cerr << "failed to write " << json_path << "\n";
    }
    return 0;
}
