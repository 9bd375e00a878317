#include "sim/event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace spindle {

void
EventQueue::schedule(SimTime when, Action action)
{
    panicIf(when < now_, "EventQueue: scheduling into the past");
    panicIf(!action, "EventQueue: null action");
    heap_.push_back({when, next_seq_++, std::move(action)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::step()
{
    panicIf(heap_.empty(), "EventQueue: step on empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Item item = std::move(heap_.back());
    heap_.pop_back();
    now_ = item.time;
    item.action();
}

void
EventQueue::run()
{
    while (!heap_.empty() && !halted_)
        step();
}

} // namespace spindle
