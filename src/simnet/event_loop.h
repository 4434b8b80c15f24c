// A minimal discrete-event simulation core.
//
// Time is in milliseconds (double). Events scheduled at equal times fire in
// scheduling order (a monotone sequence number breaks ties), which keeps
// protocol simulations deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace rekey::simnet {

class EventLoop {
 public:
  using Action = std::function<void()>;

  double now() const { return now_; }

  // Schedule at an absolute time >= now().
  void schedule_at(double time_ms, Action action);

  // Run until the queue drains (or until `max_events`, a runaway guard).
  void run(std::size_t max_events = 100'000'000);
  // Run events with time <= t_ms, then set now() = t_ms.
  void run_until(double t_ms);

  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace rekey::simnet
