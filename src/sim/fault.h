/**
 * @file
 * Fault injection for the cluster simulator (failure recovery /
 * elasticity, ROADMAP "Failure and elasticity scenarios").
 *
 * Two layers:
 *  - a *schedule* (FaultPlan): fault events expressed in
 *    iteration-relative time — "kill device 13 at 40% of iteration
 *    2" — which is how chaos suites and benchmarks describe failure
 *    scenarios independent of any particular plan's makespan;
 *  - an *injector* (FaultInjector): absolute-time failure batches
 *    armed as events on a simulator's queue. When one fires it marks
 *    the devices failed in the resource ledger and asks a callback
 *    whether the iteration must abort (it must whenever in-flight
 *    work touches the dead devices); on abort the event queue halts
 *    with the abandoned events still pending, so the engine can
 *    account lost work before replanning on the survivors.
 *
 * The Engine converts a FaultPlan to InjectedFaults per iteration
 * using the executed plan's fault-free makespan (runtime/recovery.h);
 * ChaosInjector generates seeded random FaultPlans for the chaos
 * suite and the recovery benchmark.
 */

#ifndef SPINDLE_SIM_FAULT_H
#define SPINDLE_SIM_FAULT_H

#include <cstdint>
#include <functional>
#include <vector>

#include "hardware/device.h"
#include "sim/simulator.h"

namespace spindle {

class ClusterTopology;

/** What a scheduled fault event does. */
enum class FaultKind : std::uint8_t
{
    DeviceFail, ///< one device drops out
    IslandFail, ///< a whole island (switch / node loss) drops out
    DeviceJoin, ///< a previously failed device rejoins (elastic grow)
};

/**
 * One scheduled fault in iteration-relative time: the iteration it
 * strikes and the position within that iteration as a fraction of
 * the iteration's fault-free makespan. Joins always take effect at
 * the iteration boundary (fraction ignored): a device cannot rejoin
 * mid-iteration without a plan that uses it.
 */
struct FaultEvent
{
    std::uint32_t iteration = 0;
    double fraction = 0.5; ///< in [0, 1), position within the iteration
    FaultKind kind = FaultKind::DeviceFail;
    std::uint32_t id = 0; ///< device id; island index for IslandFail
};

/** A full fault schedule, in schedule order. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Events striking @p iteration, ordered by fraction (stable). */
    std::vector<FaultEvent> forIteration(std::uint32_t iteration) const;
};

/**
 * One absolute-time failure batch: every device of @p devices
 * (original-topology ids) dies at simulated time @p time. Same-time
 * events are batched so one replan covers a correlated failure
 * (island loss kills all members at one instant).
 */
struct InjectedFault
{
    double time = 0;
    DeviceSet devices;
};

/**
 * Arms failure batches on a simulator's event queue.
 *
 * Each batch fires as an ordinary event: it marks the devices failed
 * (Simulator::failDevices — from then on any reservation touching
 * them is rejected) and invokes the OnFailure callback. If the
 * callback returns true the queue halts: dispatch stops, pending
 * events stay queued, and the caller inspects the timeline to
 * account lost work. If it returns false — no started execution
 * touches the dead devices — dispatch continues and only *future*
 * work must avoid them.
 */
class FaultInjector
{
  public:
    /**
     * Fault-firing callback: @p devices just failed at @p time.
     * Return true to halt the iteration, false to keep dispatching.
     */
    using OnFailure =
        std::function<bool(double time, const DeviceSet &devices)>;

    FaultInjector(Simulator &sim, std::vector<InjectedFault> faults);

    /**
     * Schedule every batch on the simulator's queue. Call on a fresh
     * simulator, before run(); batches whose devices are all already
     * failed are skipped.
     */
    void arm(OnFailure on_failure);

  private:
    Simulator &sim_;
    std::vector<InjectedFault> faults_;
};

/** Knobs of the seeded random fault-schedule generator. */
struct ChaosOptions
{
    /** Iterations the schedule spans. */
    std::uint32_t iterations = 1;

    /** Devices (or islands, see wholeIslands) killed per iteration. */
    std::uint32_t killsPerIteration = 1;

    /** Kill whole islands instead of individual devices. */
    bool wholeIslands = false;

    /**
     * Iterations after which a killed device rejoins (0 = never).
     * Joins land at iteration boundaries.
     */
    std::uint32_t rejoinAfter = 0;

    /** RNG seed; equal seeds give identical schedules. */
    std::uint64_t seed = 1;
};

/**
 * Seeded random fault-schedule generator for the chaos suite.
 *
 * Deterministic across platforms: draws come from a fixed 64-bit
 * LCG, not std::uniform_int_distribution (whose mapping is
 * implementation-defined). Each iteration kills killsPerIteration
 * random distinct survivors at random fractions, never killing the
 * last surviving device; with rejoinAfter set, the dead rejoin that
 * many iterations later.
 */
class ChaosInjector
{
  public:
    explicit ChaosInjector(ChaosOptions opts);

    /** Generate a fresh schedule for @p topo (advances the RNG). */
    FaultPlan generate(const ClusterTopology &topo);

  private:
    std::uint32_t draw(std::uint32_t bound);

    ChaosOptions opts_;
    std::uint64_t state_;
};

} // namespace spindle

#endif // SPINDLE_SIM_FAULT_H
