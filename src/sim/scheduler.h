// The discrete-event scheduler at the heart of the simulator — and the
// deterministic implementation of the host seam's TimerService (host/timer.h).
//
// Every asynchronous action in the system — message delivery, timer expiry,
// stable-storage write completion — is an Event in one priority queue,
// ordered by (time, insertion sequence). The sequence number makes
// simultaneous events fire in a deterministic order, which in turn makes the
// whole simulation a pure function of its seed. That ordering is exactly the
// TimerService contract (equal deadlines fire in scheduling order), so the
// protocol stack scheduled through the seam behaves identically whether it
// is driven by this class or by the real-time event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "host/time.h"
#include "host/timer.h"

namespace vsr::sim {

// Sim-side spellings of the seam's timer handle.
using host::TimerId;
using host::kNoTimer;

class Scheduler final : public host::TimerService {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulated time.
  host::Time Now() const override { return now_; }

  // Schedules `fn` to run at absolute time `at` (clamped to >= Now()).
  TimerId At(host::Time at, std::function<void()> fn) override;

  // Schedules `fn` to run `delay` from now.
  TimerId After(host::Duration delay, std::function<void()> fn) override;

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // harmless no-op, so callers do not need to track firing themselves.
  void Cancel(TimerId id) override;

  // Runs the next pending event. Returns false if the queue is empty.
  bool Step();

  // Runs events until the queue is empty or simulated time would exceed
  // `deadline`; leaves events scheduled after the deadline pending and
  // advances Now() to the deadline. Returns the number of events run.
  std::uint64_t RunUntil(host::Time deadline);

  // Runs events until the queue drains. Returns the number of events run.
  // `max_events` guards against runaway self-rescheduling loops.
  std::uint64_t RunToQuiescence(std::uint64_t max_events = UINT64_MAX);

  bool Empty() const { return pending_.empty(); }

  std::uint64_t EventsRun() const { return events_run_; }

 private:
  struct Event {
    host::Time at;
    std::uint64_t seq;
    TimerId id;
    // Stored via shared_ptr so Event is copyable inside the priority_queue.
    std::shared_ptr<std::function<void()>> fn;

    bool operator>(const Event& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  bool PopAndRun();

  host::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
  std::uint64_t events_run_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_set<TimerId> cancelled_;
  // Ids scheduled but not yet run or cancelled; keeps Cancel() of unknown
  // ids a true no-op and makes Empty() exact.
  std::unordered_set<TimerId> pending_;
};

}  // namespace vsr::sim
