/**
 * @file
 * Wave dispatch unit of the event-driven runtime (§3.6).
 *
 * Dispatches the forward and backward phases of a placed plan as
 * events on the simulator's discrete-event queue. EngineOptions::
 * dispatch selects one of two paths:
 *
 *  - StrictBarrier runs the lockstep path: streams are processed in
 *    order, waves chain wave-by-wave with a barrier at each
 *    boundary, and transmissions execute at the boundary. This
 *    reproduces the pre-event-core engine's timelines bit for bit.
 *  - Overlap runs the dependency-driven event path: each wave
 *    becomes an event admitted once every predecessor on the plan's
 *    readiness edges completed; its input transmissions start as
 *    early as their producers allow (hiding under unrelated
 *    compute), and its completion event releases its consumers.
 */

#ifndef SPINDLE_RUNTIME_WAVE_DISPATCHER_H
#define SPINDLE_RUNTIME_WAVE_DISPATCHER_H

#include <functional>
#include <map>

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
     * Exposed transmission delay. Strict path: the maximum over
     * streams of the accumulated wait on boundary flows (legacy
     * sendRecv accounting — valid wall-clock because a stream's
     * waves serialize). Event path: the wall-clock union of the
     * intervals in which some wave waited on its flows beyond its
     * compute readiness — waves overlap in time there, so summing
     * per-wave waits would double-count.
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
                   const EngineOptions &options,
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
    // Shared by both paths.
    void runPhase(bool forward);
    void phaseDone(bool forward);
    double executeEntries(const Wave &w, bool forward, double t_start);

    // Strict-barrier lockstep path (bit-identical legacy semantics).
    void startStrictStream(bool forward, std::size_t s);
    void strictDispatch(bool forward, std::size_t s);
    void processStrict(const Wave &w, bool forward,
                       std::int32_t stream_id);

    // Dependency-driven event path.
    void startEventPhase(bool forward);
    void tryAdmit(bool forward);
    void processEventWave(bool forward, std::size_t i, double t_ready);

    Simulator &sim_;
    const HardwareModel &hw_;
    const MetaGraph &graph_;
    const ExecutionPlan &plan_;
    const EngineOptions &options_;
    TransmissionExecutor &trans_;

    /** Readiness adjacency (stored on the plan, or derived). */
    std::vector<std::vector<std::int32_t>> preds_;

    double start_time_ = 0;
    DoneFn on_done_;
    DispatchStats stats_;

    /** Per-stream waves in plan order (strict path grouping). */
    std::map<std::int32_t, std::vector<const Wave *>> streams_;
    std::vector<std::int32_t> stream_ids_;

    /** Per-stream exposed transmission delay, fwd + bwd (strict
     *  path accounting). */
    std::map<std::int32_t, double> send_acc_;

    /** [t_ready, t_start) flow-wait intervals, fwd + bwd (event
     *  path accounting; reported as their union length). */
    std::vector<std::pair<double, double>> exposed_waits_;

    /** Max wave end (barrier excluded) of the running phase. */
    double phase_max_end_ = 0;

    // Strict path per-stream cursor.
    double strict_clock_ = 0;
    std::size_t strict_next_ = 0;

    // Event path per-phase state.
    std::vector<std::vector<std::int32_t>> phase_preds_;
    std::vector<bool> admitted_;
    std::vector<bool> done_;
    std::vector<double> wave_end_;
    std::size_t remaining_ = 0;
};

} // namespace spindle

#endif // SPINDLE_RUNTIME_WAVE_DISPATCHER_H
