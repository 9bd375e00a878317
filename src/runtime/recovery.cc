#include "runtime/recovery.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace spindle {

RecoveryCoordinator::RecoveryCoordinator(const HardwareModel &hw,
                                         const MetaGraph &graph,
                                         PlannerOptions planner_options,
                                         EngineOptions engine_options)
    : base_hw_(hw), graph_(graph),
      planner_options_(std::move(planner_options)),
      engine_options_(engine_options)
{
    if (planner_options_.cache) {
        cache_ = planner_options_.cache;
    } else {
        owned_cache_ = std::make_unique<PlanCache>();
        cache_ = owned_cache_.get();
    }
}

DeviceSet
RecoveryCoordinator::eventDevices(const FaultEvent &ev) const
{
    const ClusterTopology &topo = base_hw_.topology();
    if (ev.kind == FaultKind::IslandFail) {
        fatalIf(ev.id >= topo.numIslands(),
                "FaultPlan: island ", ev.id,
                " out of range (cluster has ", topo.numIslands(),
                " islands)");
        return topo.islandDevices(ev.id);
    }
    fatalIf(ev.id >= topo.numDevices(),
            "FaultPlan: device ", ev.id,
            " out of range (cluster has ", topo.numDevices(),
            " devices)");
    return {ev.id};
}

RecoveryCoordinator::ShapeState &
RecoveryCoordinator::shapeFor(const DeviceSet &dead, bool ensure_plan)
{
    auto it = shapes_.find(dead);
    if (it == shapes_.end()) {
        const ClusterTopology &base = base_hw_.topology();
        DegradedTopology deg;
        if (dead.empty()) {
            // The healthy cluster is just the identity shape.
            deg.config = base.config();
            deg.newToOld.resize(base.numDevices());
            std::iota(deg.newToOld.begin(), deg.newToOld.end(),
                      DeviceId{0});
            deg.oldToNew = deg.newToOld;
        } else {
            deg = base.withoutDevices(dead);
        }
        PlannerOptions popts = planner_options_;
        popts.cache = cache_;
        it = shapes_
                 .emplace(dead, std::make_unique<ShapeState>(
                                    std::move(deg), base_hw_.params(),
                                    popts, engine_options_))
                 .first;
    }
    ShapeState &st = *it->second;
    if (ensure_plan && !st.hasPlan) {
        // Boundary (re)plan: the topology changed without aborting
        // work (initial plan, idle-device death, rejoin). replan()
        // makes a recurring shape one cache probe.
        st.planned = st.planner.replan(graph_);
        st.hasPlan = true;
        stats_.boundaryReplanSeconds += st.planned.planningSeconds;
    }
    return st;
}

double
RecoveryCoordinator::faultFreeSeconds(ShapeState &st)
{
    if (st.faultFreeSeconds < 0)
        st.faultFreeSeconds =
            st.engine.run(graph_, st.planned.plan).iterationSeconds;
    return st.faultFreeSeconds;
}

bool
RecoveryCoordinator::fitsMemory(const ShapeState &st,
                                const PlannerOutput &out) const
{
    const std::vector<double> peak = peakMemoryPerDevice(
        graph_, out.plan, st.hw, st.engine.memory());
    const double hbm = st.topo.device().memoryBytes;
    for (double p : peak)
        if (p > hbm)
            return false;
    return true;
}

FaultedRunResult
RecoveryCoordinator::run(const FaultPlan &faults,
                         std::uint32_t iterations)
{
    fatalIf(iterations == 0,
            "RecoveryCoordinator::run: zero iterations");
    stats_ = RecoveryStats{};
    FaultedRunResult out;
    DeviceSet dead; // base-topology ids, ascending

    for (std::uint32_t it = 0; it < iterations; ++it) {
        const std::vector<FaultEvent> evs = faults.forIteration(it);

        // Boundary rejoins first: the surviving set grows before this
        // iteration's plan is chosen.
        for (const FaultEvent &ev : evs) {
            if (ev.kind != FaultKind::DeviceJoin)
                continue;
            eventDevices(ev); // range validation
            auto pos = std::find(dead.begin(), dead.end(), ev.id);
            if (pos == dead.end()) {
                warn(strCat("recovery: join event for device ", ev.id,
                            " at iteration ", it,
                            " but it is not down; ignoring"));
                continue;
            }
            dead.erase(pos);
            ++stats_.rejoinedDevices;
        }

        std::vector<FaultEvent> kills;
        for (const FaultEvent &ev : evs)
            if (ev.kind != FaultKind::DeviceJoin)
                kills.push_back(ev);

        ShapeState &st = shapeFor(dead, /*ensure_plan=*/true);

        if (kills.empty()) {
            IterationResult r = st.engine.run(graph_, st.planned.plan);
            out.totalSeconds += r.iterationSeconds;
            out.iterations.push_back(std::move(r));
            continue;
        }

        // Convert the iteration's kills to absolute-time batches
        // against the current plan's fault-free makespan.
        const double before = faultFreeSeconds(st);
        std::vector<InjectedFault> inj;
        for (const FaultEvent &ev : kills) {
            DeviceSet mapped;
            for (DeviceId d : eventDevices(ev)) {
                const DeviceId nd = st.degraded.oldToNew[d];
                if (nd != DegradedTopology::kDead)
                    mapped.push_back(nd);
            }
            if (mapped.empty())
                continue; // every target already dead
            canonicalize(mapped);
            const double frac = std::clamp(ev.fraction, 0.0, 1.0);
            inj.push_back({frac * before, std::move(mapped)});
        }

        const FaultedIterationResult fr =
            st.engine.runWithFaults(graph_, st.planned.plan, inj);

        if (fr.completed) {
            // Only idle devices died: the iteration drained on the
            // old plan; the next boundary replans on the survivors.
            DeviceSet fired;
            for (DeviceId nd : fr.failedDevices)
                fired.push_back(st.degraded.newToOld[nd]);
            canonicalize(fired);
            dead = unionOf(dead, fired);
            out.totalSeconds += fr.result.iterationSeconds;
            out.iterations.push_back(fr.result);
            continue;
        }

        // The iteration aborted. Fold every kill of this iteration —
        // fired or not — into one recovery batch: near-coincident
        // failures get one detection charge and one replan, not a
        // cascade of partial recoveries.
        DeviceSet episode;
        for (const FaultEvent &ev : kills)
            for (DeviceId d : eventDevices(ev))
                if (!std::binary_search(dead.begin(), dead.end(), d))
                    episode.push_back(d);
        canonicalize(episode);
        dead = unionOf(dead, episode);

        ShapeState &ns = shapeFor(dead, /*ensure_plan=*/false);

        RecoveryOutcome ep;
        ep.iteration = it;
        ep.failureTime = fr.failureTime;
        ep.failedDevices = std::move(episode);
        ep.cumulativeDead = dead;
        ep.survivingDevices = ns.topo.numDevices();
        ep.lostWorkSeconds = fr.lostWorkSeconds;
        ep.iterationSecondsBefore = before;
        ep.detectionSeconds = kDetectionSeconds;

        // Two-rung cascade: prefix-reusing replan() -> memory-first
        // plan(). A cold plan() would re-plan the exact bytes replan()
        // just produced (the two are byte-identical), so it is no
        // rung. First candidate that fits device memory wins; an
        // exhausted cascade accepts the final candidate with a
        // warning (degraded training beats none).
        PlannerOutput candidate;
        bool accepted = false;
        for (std::uint32_t a = 0; a < 2 && !accepted; ++a) {
            ep.restartSeconds +=
                kRestartSeconds * std::pow(kRetryBackoff, a);
            if (a == 0) {
                candidate = ns.planner.replan(graph_);
            } else {
                ep.usedMemoryFallback = true;
                PlannerOptions mopts = planner_options_;
                mopts.cache = nullptr;
                mopts.placement.memoryWeight *= 1000;
                const ExecutionPlanner memory_first(ns.hw, mopts);
                candidate = memory_first.plan(graph_);
            }
            ep.replanSeconds += candidate.planningSeconds;
            ep.attempts = a + 1;
            accepted = fitsMemory(ns, candidate);
        }
        if (!accepted) {
            ep.fit = false;
            ++stats_.degradedAccepts;
            warn(strCat("recovery: no replan attempt fit device "
                        "memory on ",
                        ns.topo.numDevices(),
                        " surviving devices after ", ep.attempts,
                        " attempts; accepting the degraded plan"));
        }
        ns.planned = std::move(candidate);
        ns.hasPlan = true;
        ns.faultFreeSeconds = -1;

        const IterationResult rr =
            ns.engine.run(graph_, ns.planned.plan);
        ep.iterationSecondsAfter = rr.iterationSeconds;
        ep.downtimeSeconds =
            ep.detectionSeconds + ep.restartSeconds + ep.replanSeconds;
        ep.replan = ns.planned.replan;

        stats_.episodes += 1;
        stats_.totalAttempts += ep.attempts;
        stats_.memoryFallbacks += ep.usedMemoryFallback ? 1 : 0;
        stats_.totalDetectionSeconds += ep.detectionSeconds;
        stats_.totalRestartSeconds += ep.restartSeconds;
        stats_.totalReplanSeconds += ep.replanSeconds;
        stats_.totalLostWorkSeconds += ep.lostWorkSeconds;
        stats_.totalDowntimeSeconds += ep.downtimeSeconds;

        // Wall clock: the aborted fraction, the stall, the rerun.
        out.totalSeconds += fr.result.iterationSeconds +
                            ep.downtimeSeconds + rr.iterationSeconds;
        out.iterations.push_back(rr);

        if (observer_)
            observer_(ep, ns.planned, ns.topo, ns.degraded);
        stats_.outcomes.push_back(std::move(ep));
    }

    out.recovery = stats_;
    return out;
}

} // namespace spindle
