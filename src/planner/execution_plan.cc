#include "planner/execution_plan.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/units.h"

namespace spindle {

std::uint32_t
Wave::devicesAllocated() const
{
    std::uint32_t total = 0;
    for (const WaveEntry &e : entries)
        total += e.n;
    return total;
}

namespace {

/**
 * Data-producer waves of every wave: for each entry, the wave that
 * produced its inputs (each predecessor MetaOp's final slice for a
 * first slice, the same MetaOp's previous slice otherwise). These
 * are exactly the waves transmissions are sourced from.
 */
std::vector<std::vector<std::int32_t>>
dataProducerWaves(const MetaGraph &graph, const std::vector<Wave> &waves)
{
    std::map<std::pair<MetaOpId, std::int64_t>, std::int32_t> producer;
    std::vector<std::vector<std::int32_t>> preds(waves.size());
    for (std::size_t i = 0; i < waves.size(); ++i) {
        const Wave &w = waves[i];
        panicIf(w.index != static_cast<std::int32_t>(i),
                "readiness: wave index does not match its position");
        for (const WaveEntry &e : w.entries) {
            if (e.opBegin == 0) {
                for (const MetaEdge &edge : graph.edges()) {
                    if (edge.dst != e.metaOp)
                        continue;
                    auto it = producer.find(
                        {edge.src, graph.metaOp(edge.src).numOps()});
                    panicIf(it == producer.end(),
                            "readiness: predecessor output missing "
                            "(invalid plan)");
                    preds[i].push_back(it->second);
                }
            } else {
                auto it = producer.find({e.metaOp, e.opBegin});
                panicIf(it == producer.end(),
                        "readiness: missing previous slice");
                preds[i].push_back(it->second);
            }
        }
        for (const WaveEntry &e : w.entries)
            producer[{e.metaOp, e.opBegin + e.numOps}] = w.index;
    }
    return preds;
}

void
sortUnique(std::vector<std::int32_t> &v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

} // namespace

std::vector<std::vector<std::int32_t>>
computeWaveReadiness(const MetaGraph &graph,
                     const std::vector<Wave> &waves)
{
    std::vector<std::vector<std::int32_t>> preds =
        dataProducerWaves(graph, waves);

    // Program order within a stream.
    std::map<std::int32_t, std::int32_t> last_of_stream;
    // Per device-group predecessors: the latest earlier wave that
    // touched each device (placed plans only). Dense by device id —
    // ids are dense by construction, and the map variant dominated
    // the planner's serial tail at 256 GPUs.
    std::vector<std::int32_t> last_on_device;

    for (std::size_t i = 0; i < waves.size(); ++i) {
        const Wave &w = waves[i];
        auto it = last_of_stream.find(w.stream);
        if (it != last_of_stream.end())
            preds[i].push_back(it->second);
        last_of_stream[w.stream] = w.index;

        for (const WaveEntry &e : w.entries) {
            for (DeviceId d : e.devices) {
                if (d >= last_on_device.size())
                    last_on_device.resize(d + 1, -1);
                const std::int32_t last = last_on_device[d];
                if (last >= 0 && last != w.index)
                    preds[i].push_back(last);
            }
        }
        for (const WaveEntry &e : w.entries)
            for (DeviceId d : e.devices)
                last_on_device[d] = w.index;

        sortUnique(preds[i]);
    }
    return preds;
}

void
annotateWaveReadiness(const MetaGraph &graph, std::vector<Wave> &waves)
{
    std::vector<std::vector<std::int32_t>> preds =
        computeWaveReadiness(graph, waves);
    for (std::size_t i = 0; i < waves.size(); ++i)
        waves[i].predecessors = std::move(preds[i]);
}

bool
hasWaveReadiness(const std::vector<Wave> &waves)
{
    return std::any_of(waves.begin(), waves.end(), [](const Wave &w) {
        return !w.predecessors.empty();
    });
}

void
ExecutionPlan::annotateReadiness(const MetaGraph &graph)
{
    annotateWaveReadiness(graph, waves);
}

bool
ExecutionPlan::hasReadiness() const
{
    return hasWaveReadiness(waves);
}

void
ExecutionPlan::validate(const MetaGraph &graph) const
{
    std::map<MetaOpId, std::int64_t> ops_done;

    std::vector<char> used; // dense in-wave device occupancy
    for (const Wave &wave : waves) {
        panicIf(wave.entries.empty(), "validate: empty wave");
        panicIf(wave.devicesAllocated() > numDevices,
                "validate: wave ", wave.index, " allocates ",
                wave.devicesAllocated(), " > N=", numDevices);

        std::vector<MetaOpId> seen;
        used.assign(numDevices, 0);
        std::map<MetaOpId, std::int64_t> wave_ops;
        for (const WaveEntry &e : wave.entries) {
            panicIf(e.numOps <= 0, "validate: empty wave entry");
            panicIf(e.n == 0, "validate: zero-device entry");
            panicIf(std::count(seen.begin(), seen.end(), e.metaOp) > 0,
                    "validate: MetaOp ", e.metaOp,
                    " appears twice in wave ", wave.index);
            seen.push_back(e.metaOp);

            const MetaOp &m = graph.metaOp(e.metaOp);
            if (e.opBegin == 0) {
                // Eq. 3: every predecessor finished in a strictly
                // earlier wave (ops_done holds the pre-wave state)
                // before the first slice of this MetaOp runs.
                for (MetaOpId p : graph.predecessors(e.metaOp)) {
                    panicIf(ops_done[p] != graph.metaOp(p).numOps(),
                            "validate: MetaOp ", e.metaOp,
                            " starts before predecessor ", p,
                            " finished");
                }
            }
            panicIf(e.opBegin != ops_done[e.metaOp],
                    "validate: MetaOp ", e.metaOp,
                    " slices are not contiguous");
            wave_ops[e.metaOp] = e.numOps;
            panicIf(e.opBegin + e.numOps > m.numOps(),
                    "validate: MetaOp ", e.metaOp, " over-executes");

            if (!e.devices.empty()) {
                panicIf(e.devices.size() != e.n,
                        "validate: entry device set size ",
                        e.devices.size(), " != n=", e.n);
                panicIf(!isCanonicalDeviceSet(e.devices),
                        "validate: device set not canonical");
                for (DeviceId d : e.devices) {
                    panicIf(d >= used.size(), "validate: device id ", d,
                            " out of range in wave ", wave.index);
                    panicIf(used[d],
                            "validate: overlapping device sets in wave ",
                            wave.index);
                    used[d] = 1;
                }
            }
        }
        for (const auto &[m, ops] : wave_ops)
            ops_done[m] += ops;
    }

    for (const MetaOp &m : graph.metaOps()) {
        panicIf(ops_done[m.id] != m.numOps(),
                "validate: MetaOp ", m.id, " executed ",
                ops_done[m.id], " of ", m.numOps(), " ops");
    }

    // Readiness edges (when annotated): well-formed and covering
    // every data producer, so event-driven dispatch can never admit
    // a wave before its inputs exist.
    if (hasWaveReadiness(waves)) {
        for (std::size_t i = 0; i < waves.size(); ++i) {
            const auto &preds = waves[i].predecessors;
            panicIf(!std::is_sorted(preds.begin(), preds.end()) ||
                        std::adjacent_find(preds.begin(), preds.end()) !=
                            preds.end(),
                    "validate: readiness edges of wave ", i,
                    " are not sorted and unique");
            for (std::int32_t p : preds)
                panicIf(p < 0 || p >= static_cast<std::int32_t>(i),
                        "validate: wave ", i,
                        " has readiness predecessor ", p,
                        " that is not strictly earlier");
        }
        const std::vector<std::vector<std::int32_t>> data =
            dataProducerWaves(graph, waves);
        for (std::size_t i = 0; i < waves.size(); ++i) {
            for (std::int32_t p : data[i]) {
                if (p == waves[i].index)
                    continue; // same-wave production needs no edge
                panicIf(!std::binary_search(waves[i].predecessors.begin(),
                                            waves[i].predecessors.end(),
                                            p),
                        "validate: wave ", i,
                        " misses readiness edge to data producer wave ",
                        p);
            }
        }
    }
}

std::string
ExecutionPlan::str(const MetaGraph &graph) const
{
    std::ostringstream os;
    os << "ExecutionPlan: " << waves.size() << " waves on "
       << numDevices << " devices, estimated span "
       << toMs(estimatedSpan) << " ms\n";
    for (const Wave &w : waves) {
        os << "  wave " << w.index << " (level " << w.level << ", "
           << toMs(w.duration) << " ms):\n";
        for (const WaveEntry &e : w.entries) {
            os << "    " << graph.metaOp(e.metaOp).name << " ops ["
               << e.opBegin << ", " << e.opBegin + e.numOps << ") on "
               << e.n << " devices";
            if (!e.devices.empty())
                os << " " << deviceSetStr(e.devices);
            os << "\n";
        }
    }
    return os.str();
}

} // namespace spindle
