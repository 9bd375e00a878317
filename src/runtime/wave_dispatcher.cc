#include "runtime/wave_dispatcher.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

WaveDispatcher::WaveDispatcher(Simulator &sim, const HardwareModel &hw,
                               const MetaGraph &graph,
                               const ExecutionPlan &plan,
                               TransmissionExecutor &trans)
    : sim_(sim), hw_(hw), graph_(graph), plan_(plan), trans_(trans)
{
    if (hasWaveReadiness(plan_.waves)) {
        preds_.reserve(plan_.waves.size());
        for (const Wave &w : plan_.waves)
            preds_.push_back(w.predecessors);
    } else {
        preds_ = computeWaveReadiness(graph_, plan_.waves);
    }
}

void
WaveDispatcher::start(double earliest, DoneFn on_done)
{
    panicIf(plan_.waves.empty(), "WaveDispatcher: empty plan");
    panicIf(!on_done, "WaveDispatcher: null completion");
    start_time_ = earliest;
    on_done_ = std::move(on_done);
    stats_ = DispatchStats{};
    exposed_waits_.clear();
    startPhase(/*forward=*/true);
}

void
WaveDispatcher::phaseDone(bool forward)
{
    if (forward) {
        stats_.fwdEnd = phase_max_end_;
        startPhase(/*forward=*/false);
        return;
    }
    stats_.bwdEnd = std::max(stats_.fwdEnd, phase_max_end_);
    // Union length of the flow-wait intervals: concurrent waves
    // waiting at the same time count once.
    std::sort(exposed_waits_.begin(), exposed_waits_.end());
    double covered_to = start_time_;
    for (const auto &[from, to] : exposed_waits_) {
        stats_.exposedSendRecv +=
            std::max(0.0, to - std::max(from, covered_to));
        covered_to = std::max(covered_to, to);
    }
    on_done_(stats_);
}

double
WaveDispatcher::executeEntries(const Wave &w, bool forward,
                               double t_start)
{
    double wave_end = t_start;
    for (const WaveEntry &e : w.entries) {
        const MetaOp &m = graph_.metaOp(e.metaOp);
        const OperatorDesc desc = memberDesc(m);
        const ParallelConfig cfg = hw_.bestConfig(desc, e.n);
        const double per_op = forward ? hw_.opTimeFwd(desc, cfg)
                                      : hw_.opTimeBwd(desc, cfg);
        const double dur = per_op * static_cast<double>(e.numOps);
        const double flops =
            m.flopsFwdPerOp *
            (forward ? 1.0 : hw_.params().bwdFlopsFactor) *
            static_cast<double>(e.numOps);
        const double end =
            sim_.occupy(e.devices, t_start, dur, ExecKind::Compute,
                        flops, e.metaOp, forward ? "fwd" : "bwd");
        wave_end = std::max(wave_end, end);
    }
    return wave_end;
}

void
WaveDispatcher::startPhase(bool forward)
{
    phase_max_end_ = start_time_;
    const std::size_t n = plan_.waves.size();
    // Phase adjacency: the forward phase dispatches on the plan's
    // readiness edges; the backward phase reverses them (a wave's
    // backward waits for the backward of its consumers).
    if (forward) {
        phase_preds_ = preds_;
    } else {
        phase_preds_.assign(n, {});
        for (std::size_t i = 0; i < n; ++i)
            for (std::int32_t p : preds_[i])
                phase_preds_[static_cast<std::size_t>(p)].push_back(
                    static_cast<std::int32_t>(i));
        for (auto &p : phase_preds_)
            std::sort(p.begin(), p.end());
    }
    admitted_.assign(n, false);
    done_.assign(n, false);
    wave_end_.assign(n, start_time_);
    remaining_ = n;
    tryAdmit(forward);
}

void
WaveDispatcher::tryAdmit(bool forward)
{
    const std::size_t n = plan_.waves.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Admitted once every predecessor completed.
        const std::vector<std::int32_t> &preds = phase_preds_[i];
        if (admitted_[i] ||
            !std::all_of(preds.begin(), preds.end(), [this](std::int32_t p) {
                return done_[static_cast<std::size_t>(p)];
            }))
            continue;
        admitted_[i] = true;
        // Ready once every predecessor's completion (barrier
        // included) has passed.
        double t_ready = start_time_;
        for (std::int32_t p : preds)
            t_ready = std::max(t_ready,
                               wave_end_[static_cast<std::size_t>(p)]);
        sim_.notifyAt(t_ready, [this, forward, i, t_ready] {
            processWave(forward, i, t_ready);
        });
    }
}

void
WaveDispatcher::processWave(bool forward, std::size_t i,
                            double t_ready)
{
    const Wave &w = plan_.waves[i];

    // Each boundary flow starts as soon as its producer finished —
    // potentially well before this wave's other dependencies — so
    // transfers hide under unrelated compute where possible. Only
    // the delay beyond compute readiness is exposed.
    double t_start = t_ready;
    for (const TransmissionOp *t : trans_.flowsInto(w.index, forward)) {
        const std::int32_t producer = forward ? t->srcWave : t->dstWave;
        const double end = trans_.execute(
            *t, wave_end_[static_cast<std::size_t>(producer)]);
        t_start = std::max(t_start, end);
    }
    if (t_start > t_ready)
        exposed_waits_.emplace_back(t_ready, t_start);

    const double wave_end = executeEntries(w, forward, t_start);
    phase_max_end_ = std::max(phase_max_end_, wave_end);
    wave_end_[i] = wave_end + kWaveBarrier;

    // Device-group availability fires the completion through the
    // event queue: consumers are released when the wave's end time
    // is reached, in deterministic completion order.
    sim_.notifyAt(wave_end_[i], [this, forward, i] {
        done_[i] = true;
        if (--remaining_ == 0) {
            phaseDone(forward);
            return;
        }
        tryAdmit(forward);
    });
}

} // namespace spindle
