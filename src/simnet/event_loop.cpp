#include "simnet/event_loop.h"

#include "common/ensure.h"

namespace rekey::simnet {

void EventLoop::schedule_at(double time_ms, Action action) {
  REKEY_ENSURE_MSG(time_ms >= now_, "event scheduled in the past");
  queue_.push(Event{time_ms, next_seq_++, std::move(action)});
}

void EventLoop::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (!queue_.empty()) {
    REKEY_ENSURE_MSG(++fired <= max_events, "event budget exhausted");
    // Copy out before pop: the action may schedule more events.
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.action();
  }
}

void EventLoop::run_until(double t_ms) {
  REKEY_ENSURE(t_ms >= now_);
  while (!queue_.empty() && queue_.top().time <= t_ms) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.action();
  }
  now_ = t_ms;
}

}  // namespace rekey::simnet
