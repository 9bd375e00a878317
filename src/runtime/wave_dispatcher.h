/**
 * @file
 * Wave dispatch unit of the event-driven runtime (§3.6).
 *
 * Dispatches the forward and backward phases of a placed plan as
 * events on the simulator's discrete-event queue: each wave becomes
 * an event admitted once every predecessor on the plan's readiness
 * edges completed; its input transmissions start as early as their
 * producers allow (hiding under unrelated compute), and its
 * completion event releases its consumers.
 */

#ifndef SPINDLE_RUNTIME_WAVE_DISPATCHER_H
#define SPINDLE_RUNTIME_WAVE_DISPATCHER_H

#include <functional>

#include "runtime/engine.h"
#include "runtime/transmission_executor.h"
#include "sim/simulator.h"

namespace spindle {

/** What one forward+backward dispatch yields. */
struct DispatchStats
{
    /** End of the forward phase within this dispatch. */
    double fwdEnd = 0;

    /** End of the backward phase within this dispatch. */
    double bwdEnd = 0;

    /**
     * Exposed transmission delay: the wall-clock union of the
     * intervals in which some wave waited on its flows beyond its
     * compute readiness. Waves overlap in time, so summing per-wave
     * waits would double-count.
     */
    double exposedSendRecv = 0;
};

/**
 * Registers the wave events of one plan on the event queue and
 * reports phase statistics when the backward phase drains.
 */
class WaveDispatcher
{
  public:
    using DoneFn = std::function<void(const DispatchStats &)>;

    WaveDispatcher(Simulator &sim, const HardwareModel &hw,
                   const MetaGraph &graph, const ExecutionPlan &plan,
                   TransmissionExecutor &trans);

    /**
     * Register the iteration's initial events; dispatch begins no
     * earlier than @p earliest (mid-iteration task arrivals pass
     * their arrival time). @p on_done fires — as part of the last
     * completion event — once both phases drained. The caller runs
     * the queue.
     */
    void start(double earliest, DoneFn on_done);

  private:
    void startPhase(bool forward);
    void phaseDone(bool forward);
    void tryAdmit(bool forward);
    void processWave(bool forward, std::size_t i, double t_ready);
    double executeEntries(const Wave &w, bool forward, double t_start);

    Simulator &sim_;
    const HardwareModel &hw_;
    const MetaGraph &graph_;
    const ExecutionPlan &plan_;
    TransmissionExecutor &trans_;

    /** Readiness adjacency (stored on the plan, or derived). */
    std::vector<std::vector<std::int32_t>> preds_;

    double start_time_ = 0;
    DoneFn on_done_;
    DispatchStats stats_;

    /** [t_ready, t_start) flow-wait intervals, fwd + bwd (reported
     *  as their union length). */
    std::vector<std::pair<double, double>> exposed_waits_;

    /** Max wave end (barrier excluded) of the running phase. */
    double phase_max_end_ = 0;

    // Per-phase admission state.
    std::vector<std::vector<std::int32_t>> phase_preds_;
    std::vector<bool> admitted_;
    std::vector<bool> done_;
    std::vector<double> wave_end_;
    std::size_t remaining_ = 0;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_WAVE_DISPATCHER_H
