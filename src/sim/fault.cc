#include "sim/fault.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "hardware/topology.h"

namespace spindle {

std::vector<FaultEvent>
FaultPlan::forIteration(std::uint32_t iteration) const
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &ev : events)
        if (ev.iteration == iteration)
            out.push_back(ev);
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.fraction < b.fraction;
                     });
    return out;
}

std::uint32_t
FaultPlan::lastIteration() const
{
    std::uint32_t last = 0;
    for (const FaultEvent &ev : events)
        last = std::max(last, ev.iteration);
    return last;
}

FaultInjector::FaultInjector(Simulator &sim,
                             std::vector<InjectedFault> faults)
    : sim_(sim), faults_(std::move(faults))
{
    for (const InjectedFault &f : faults_) {
        fatalIf(f.devices.empty(),
                "FaultInjector: fault batch with no devices");
        fatalIf(f.time < 0,
                "FaultInjector: fault at negative time ",
                f.time);
        for (DeviceId d : f.devices)
            fatalIf(d >= sim.numDevices(),
                    "FaultInjector: device ", d,
                    " out of range (cluster has ",
                    sim.numDevices(), " devices)");
    }
}

void
FaultInjector::arm(OnFailure on_failure)
{
    panicIf(!on_failure, "FaultInjector::arm: null callback");
    for (const InjectedFault &f : faults_) {
        sim_.queue().schedule(
            f.time, [this, &f, on_failure] {
                DeviceSet fresh;
                for (DeviceId d : f.devices)
                    if (!sim_.isFailed(d))
                        fresh.push_back(d);
                if (fresh.empty())
                    return; // every device already down
                sim_.failDevices(fresh);
                if (on_failure(f.time, fresh))
                    sim_.queue().halt();
            });
    }
}

ChaosInjector::ChaosInjector(ChaosOptions opts)
    : opts_(opts),
      // Scramble the seed once so seed 0 and seed 1 diverge
      // immediately (the raw LCG maps nearby seeds to nearby first
      // draws).
      state_(opts.seed * 6364136223846793005ull +
             1442695040888963407ull)
{
    fatalIf(opts_.iterations == 0, "ChaosInjector: zero iterations");
}

std::uint32_t
ChaosInjector::draw(std::uint32_t bound)
{
    panicIf(bound == 0, "ChaosInjector::draw: zero bound");
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state_ >> 33) % bound);
}

FaultPlan
ChaosInjector::generate(const ClusterTopology &topo)
{
    FaultPlan plan;
    std::vector<bool> dead(topo.numDevices(), false);
    std::uint32_t alive = topo.numDevices();
    // (rejoin iteration, device) pairs pending from earlier kills.
    std::vector<std::pair<std::uint32_t, DeviceId>> joins;

    for (std::uint32_t it = 0; it < opts_.iterations; ++it) {
        for (const auto &[join_it, dev] : joins) {
            if (join_it != it)
                continue;
            plan.events.push_back(
                {it, 0.0, FaultKind::DeviceJoin, dev});
            dead[dev] = false;
            ++alive;
        }
        for (std::uint32_t k = 0; k < opts_.killsPerIteration; ++k) {
            if (opts_.wholeIslands) {
                // Surviving islands: at least one member alive.
                std::vector<std::uint32_t> up;
                DeviceSet up_members;
                for (std::uint32_t isl = 0; isl < topo.numIslands();
                     ++isl) {
                    std::uint32_t members = 0;
                    for (DeviceId d : topo.islandDevices(isl))
                        if (!dead[d])
                            ++members;
                    if (members > 0 && members < alive)
                        up.push_back(isl);
                }
                if (up.empty())
                    break; // killing any island wipes the cluster
                const std::uint32_t isl =
                    up[draw(static_cast<std::uint32_t>(up.size()))];
                const double frac = 0.1 + 0.8 * (draw(1000) / 1000.0);
                plan.events.push_back(
                    {it, frac, FaultKind::IslandFail, isl});
                for (DeviceId d : topo.islandDevices(isl)) {
                    if (dead[d])
                        continue;
                    dead[d] = true;
                    --alive;
                    if (opts_.rejoinAfter > 0 &&
                        it + opts_.rejoinAfter < opts_.iterations)
                        joins.emplace_back(it + opts_.rejoinAfter, d);
                }
            } else {
                if (alive <= 1)
                    break; // never kill the last survivor
                std::uint32_t pick = draw(alive - 1);
                DeviceId victim = DegradedTopology::kDead;
                for (DeviceId d = 0; d < topo.numDevices(); ++d) {
                    if (dead[d])
                        continue;
                    if (pick == 0) {
                        victim = d;
                        break;
                    }
                    --pick;
                }
                panicIf(victim == DegradedTopology::kDead,
                        "ChaosInjector: victim scan overran");
                const double frac = 0.1 + 0.8 * (draw(1000) / 1000.0);
                plan.events.push_back(
                    {it, frac, FaultKind::DeviceFail, victim});
                dead[victim] = true;
                --alive;
                if (opts_.rejoinAfter > 0 &&
                    it + opts_.rejoinAfter < opts_.iterations)
                    joins.emplace_back(it + opts_.rejoinAfter, victim);
            }
        }
    }
    return plan;
}

} // namespace spindle
