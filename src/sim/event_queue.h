/**
 * @file
 * Deterministic discrete-event queue — the kernel of the cluster
 * simulator that stands in for the paper's physical testbed.
 *
 * Events at equal timestamps run in scheduling order (a monotone
 * sequence number breaks ties), so simulations are bit-reproducible.
 */

#ifndef SPINDLE_SIM_EVENT_QUEUE_H
#define SPINDLE_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

namespace spindle {

/** Simulated time in seconds. */
using SimTime = double;

/**
 * Time-ordered event queue with deterministic tie-breaking.
 */
class EventQueue
{
  public:
    using Action = std::function<void()>;

    /** Current simulated time (time of the last dispatched event). */
    SimTime now() const { return now_; }

    /** Schedule @p action at absolute time @p when (>= now). */
    void schedule(SimTime when, Action action);

    bool empty() const { return heap_.empty(); }

    /** Advance to the earliest event and dispatch it. */
    void step();

    /** Dispatch events until the queue drains or halt() fires. */
    void run();

    /**
     * Stop dispatching for good: run() returns before the next
     * event. Called from inside an event handler (the
     * fault-injection path aborts an iteration this way); pending
     * events stay queued so the caller can inspect what was
     * abandoned.
     */
    void halt() { halted_ = true; }

  private:
    struct Item
    {
        SimTime time;
        std::uint64_t seq;
        Action action;
    };

    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** Binary min-heap on (time, seq), kept by std::push_heap /
     *  std::pop_heap so step() can move the action out. */
    std::vector<Item> heap_;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    bool halted_ = false;
};

} // namespace spindle

#endif // SPINDLE_SIM_EVENT_QUEUE_H
