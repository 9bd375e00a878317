/**
 * @file
 * Shared helpers for the benchmark harnesses: cluster construction,
 * uniform system sweeps, and speedup-table rendering in the shape of
 * the paper's figures.
 */

#ifndef SPINDLE_BENCH_BENCH_UTIL_H
#define SPINDLE_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spindle/spindle.h"

namespace spindle::bench {

/**
 * One record field: a number or a string. Implicit construction from
 * arithmetic values keeps the historical `{{"gpus", 8.0}, ...}` call
 * shape working unchanged; string fields make the artifacts
 * self-describing where an enum index would rot (e.g. the
 * serial_tail_phase of BENCH_planner.json naming a planner phase).
 */
struct BenchField
{
    BenchField(double v) : num(v) {}
    BenchField(const char *s) : str(s), isString(true) {}
    BenchField(std::string s) : str(std::move(s)), isString(true) {}

    double num = 0;
    std::string str;
    bool isString = false;
};

/**
 * Minimal JSON emitter for benchmark artifacts: an array of flat
 * records, each a name plus numeric or string fields. Lets bench
 * binaries drop machine-readable results (e.g. BENCH_planner.json)
 * next to their human-readable tables, so trajectory tooling and the
 * CI perf smoke can diff runs without parsing stdout.
 */
class BenchJsonWriter
{
  public:
    /** Add (or overwrite, matched by name) one record. */
    void
    record(const std::string &name,
           std::vector<std::pair<std::string, BenchField>> fields)
    {
        for (auto &rec : records_) {
            if (rec.first == name) {
                rec.second = std::move(fields);
                return;
            }
        }
        records_.emplace_back(name, std::move(fields));
    }

    bool empty() const { return records_.empty(); }

    /** Render the records as a JSON array of objects. */
    std::string
    str() const
    {
        std::ostringstream os;
        os.precision(17);
        os << "[\n";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const auto &[name, fields] = records_[i];
            os << "  {\"name\": \"" << name << "\"";
            for (const auto &[key, value] : fields) {
                os << ", \"" << key << "\": ";
                if (value.isString)
                    os << "\"" << value.str << "\"";
                else
                    os << value.num;
            }
            os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
        }
        os << "]\n";
        return os.str();
    }

    /** Write the JSON rendering to @p path; false on I/O failure. */
    bool
    writeFile(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << str();
        return static_cast<bool>(out);
    }

    /**
     * Merge the records of a file previously written by writeFile()
     * into this writer (same-name records are overwritten by later
     * record() calls). Lets several bench binaries contribute to one
     * artifact — e.g. bench_collectives and bench_fig08_end_to_end
     * both emitting exposed-sync deltas into BENCH_collectives.json.
     * Only parses the writer's own flat record shape; returns false
     * (leaving this writer untouched by the bad line) on anything
     * else. A missing file is not an error.
     */
    bool
    loadFile(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return true; // nothing to merge
        bool ok = true;
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t name_key = line.find("{\"name\": \"");
            if (name_key == std::string::npos)
                continue; // array brackets / blank lines
            std::size_t pos = name_key + 10;
            const std::size_t name_end = line.find('"', pos);
            if (name_end == std::string::npos) {
                ok = false;
                continue;
            }
            const std::string name = line.substr(pos, name_end - pos);
            std::vector<std::pair<std::string, BenchField>> fields;
            bool line_ok = true;
            pos = name_end + 1;
            while (true) {
                const std::size_t key_begin = line.find('"', pos);
                if (key_begin == std::string::npos)
                    break;
                const std::size_t key_end =
                    line.find('"', key_begin + 1);
                const std::size_t colon =
                    key_end == std::string::npos
                        ? std::string::npos
                        : line.find(':', key_end);
                if (colon == std::string::npos) {
                    line_ok = false;
                    break;
                }
                std::string key = line.substr(key_begin + 1,
                                              key_end - key_begin - 1);
                std::size_t val_begin = colon + 1;
                while (val_begin < line.size() &&
                       line[val_begin] == ' ')
                    ++val_begin;
                if (val_begin < line.size() && line[val_begin] == '"') {
                    // Quoted string value (e.g. a phase name).
                    const std::size_t val_end =
                        line.find('"', val_begin + 1);
                    if (val_end == std::string::npos) {
                        line_ok = false;
                        break;
                    }
                    fields.emplace_back(
                        std::move(key),
                        line.substr(val_begin + 1,
                                    val_end - val_begin - 1));
                    pos = val_end + 1;
                    continue;
                }
                const char *start = line.c_str() + val_begin;
                char *end = nullptr;
                const double value = std::strtod(start, &end);
                if (end == start) {
                    line_ok = false;
                    break;
                }
                fields.emplace_back(std::move(key), value);
                pos = static_cast<std::size_t>(end - line.c_str());
            }
            if (line_ok)
                record(name, std::move(fields));
            else
                ok = false; // reject the whole line, merge nothing
        }
        return ok;
    }

  private:
    std::vector<std::pair<
        std::string, std::vector<std::pair<std::string, BenchField>>>>
        records_;
};

/**
 * Threads that run in parallel on this runner, calibrated by spinning:
 * the median over three repetitions of threads x (one spin's time) /
 * (time of @p threads concurrent spins). On a runner whose CPU quota
 * is below its reported hardware threads this reads the quota, not
 * the count (perfbench calibrates the same way).
 */
inline double
calibrateEffectiveThreads(unsigned threads)
{
    constexpr std::uint64_t kIters = 30'000'000;
    const auto time_spins = [](unsigned n) {
        std::atomic<std::uint64_t> sink{0};
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back([&sink] {
                std::uint64_t x = 0x9e3779b97f4a7c15ull;
                for (std::uint64_t i = 0; i < kIters; ++i) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                sink += x;
            });
        for (std::thread &t : pool)
            t.join();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep)
        ratios.push_back(threads * time_spins(1) / time_spins(threads));
    std::sort(ratios.begin(), ratios.end());
    return ratios[1];
}

/**
 * @p fields plus the runner's thread facts: `hw_threads`, the count
 * the OS reports, and `effective_threads`, the spin-calibrated count
 * (calibrated once per process). Thread-keyed perf gates read the
 * latter, so a quota-limited runner skips them instead of flapping.
 */
inline std::vector<std::pair<std::string, BenchField>>
withThreadFields(std::vector<std::pair<std::string, BenchField>> fields)
{
    static const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    static const double effective = calibrateEffectiveThreads(hw);
    fields.emplace_back("hw_threads", static_cast<double>(hw));
    fields.emplace_back("effective_threads", effective);
    return fields;
}

/** The paper's cluster: nodes of 8 A800s, NVLink + 400Gb/s IB. */
inline ClusterTopology
makeCluster(std::uint32_t num_nodes)
{
    ClusterConfig cfg;
    cfg.numNodes = num_nodes;
    cfg.gpusPerNode = 8;
    return ClusterTopology(cfg);
}

/**
 * Heterogeneous island layout with the same GPU count as num_nodes
 * standard nodes: node pairs fused into 12-GPU + 4-GPU islands (a
 * big NVLink domain next to a small one), odd trailing node kept at
 * 8. The config is exposed so benches can override link classes
 * (bench_collectives' rail-constrained fabric) while benchmarking
 * the exact island shape the planner sweeps use.
 */
inline ClusterConfig
heteroClusterConfig(std::uint32_t num_nodes)
{
    ClusterConfig cfg;
    std::uint32_t next = 0;
    auto add_island = [&](std::uint32_t size) {
        IslandSpec island;
        for (std::uint32_t i = 0; i < size; ++i)
            island.devices.push_back(next++);
        cfg.islands.push_back(std::move(island));
    };
    for (std::uint32_t k = 0; k + 1 < num_nodes; k += 2) {
        add_island(12);
        add_island(4);
    }
    if (num_nodes % 2 != 0)
        add_island(8);
    return cfg;
}

/** Mixed 12/4-island cluster with default link classes. */
inline ClusterTopology
makeHeteroCluster(std::uint32_t num_nodes)
{
    return ClusterTopology(heteroClusterConfig(num_nodes));
}

/** Label like "1Node(8GPUs)". */
inline std::string
clusterLabel(std::uint32_t num_nodes)
{
    return strCat(num_nodes, num_nodes == 1 ? "Node(" : "Nodes(",
                  num_nodes * 8, "GPUs)");
}

/**
 * One phase of a Fig. 13 dynamic-workload schedule: run the given
 * multitask mix for a stretch of iterations, then move to the next
 * phase (a task arrival or departure).
 */
struct DynamicPhase
{
    std::uint32_t tasks = 0;
    double iterations = 0; ///< thousands of iterations
};

/** The paper's Fig. 13 Multitask-CLIP schedule: 4 -> 7 -> 10 -> 7. */
inline std::vector<DynamicPhase>
clipDynamicPhases()
{
    return {{4, 50}, {7, 50}, {10, 50}, {7, 50}};
}

/** The paper's Fig. 13 OFASys schedule: 4 -> 7 -> 5. */
inline std::vector<DynamicPhase>
ofasysDynamicPhases()
{
    return {{4, 30}, {7, 40}, {5, 30}};
}

/**
 * Shared setup of the dynamic-arrival benches: a planned Multitask-
 * CLIP base workload plus a planned single-arrival workload on one
 * cluster. Self-referential (the MetaGraphs point into the member
 * ComputationGraphs), hence pinned in place.
 */
struct ArrivalScenario
{
    ArrivalScenario(ExecutionPlanner &planner, std::uint32_t base_tasks,
                    std::uint32_t arrival_tasks)
        : baseGraph(buildMultitaskClip({.numTasks = base_tasks})),
          arrivalGraph(buildMultitaskClip({.numTasks = arrival_tasks})),
          base(contractGraph(baseGraph)),
          arrival(contractGraph(arrivalGraph)),
          baseOut(planner.plan(base)), arrivalOut(planner.plan(arrival))
    {
    }

    ArrivalScenario(const ArrivalScenario &) = delete;
    ArrivalScenario &operator=(const ArrivalScenario &) = delete;

    ComputationGraph baseGraph;
    ComputationGraph arrivalGraph;
    MetaGraph base;
    MetaGraph arrival;
    PlannerOutput baseOut;
    PlannerOutput arrivalOut;
};

/** The five systems of Fig. 8, in the paper's legend order. */
inline std::vector<std::unique_ptr<System>>
makeAllSystems(const HardwareModel &hw)
{
    std::vector<std::unique_ptr<System>> systems;
    systems.push_back(std::make_unique<SpindleSystem>(hw));
    systems.push_back(std::make_unique<SpindleOptimusSystem>(hw));
    systems.push_back(std::make_unique<DistMMMTSystem>(hw));
    systems.push_back(
        std::make_unique<SequentialSystem>(hw, SequentialMode::Megatron));
    systems.push_back(
        std::make_unique<SequentialSystem>(hw, SequentialMode::DeepSpeed));
    return systems;
}

/**
 * Run every system on one workload/cluster combination and print
 * rows of iteration time plus speedup over DeepSpeed (the paper's
 * normalization in Fig. 8).
 */
inline void
sweepSystems(const std::string &workload, std::uint32_t num_nodes,
             const ComputationGraph &graph, Table &table,
             const std::function<void(const SystemResult &)> &observe =
                 nullptr)
{
    ClusterTopology topo = makeCluster(num_nodes);
    HardwareModel hw(topo);
    MetaGraph meta = contractGraph(graph);

    auto systems = makeAllSystems(hw);
    std::vector<SystemResult> results;
    results.reserve(systems.size());
    for (const auto &sys : systems)
        results.push_back(sys->runIteration(meta));

    const double deepspeed = results.back().iterationSeconds;
    for (const SystemResult &r : results) {
        table.addRow({workload, clusterLabel(num_nodes), r.system,
                      Table::fmt(toMs(r.iterationSeconds), 1),
                      Table::fmt(deepspeed / r.iterationSeconds, 2)});
        if (observe)
            observe(r);
    }
}

} // namespace spindle::bench

#endif // SPINDLE_BENCH_BENCH_UTIL_H
