#include "sim/scheduler.h"

#include <memory>
#include <utility>

namespace vsr::sim {

TimerId Scheduler::At(host::Time at, std::function<void()> fn) {
  if (at < now_) at = now_;
  TimerId id = next_id_++;
  pending_.insert(id);
  queue_.push(Event{at, next_seq_++, id,
                    std::make_shared<std::function<void()>>(std::move(fn))});
  return id;
}

TimerId Scheduler::After(host::Duration delay, std::function<void()> fn) {
  return At(now_ + delay, std::move(fn));
}

void Scheduler::Cancel(TimerId id) {
  if (id == kNoTimer) return;
  if (pending_.erase(id) != 0) cancelled_.insert(id);
}

bool Scheduler::PopAndRun() {
  while (!queue_.empty()) {
    Event e = queue_.top();
    queue_.pop();
    if (auto it = cancelled_.find(e.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    pending_.erase(e.id);
    now_ = e.at;
    ++events_run_;
    (*e.fn)();
    return true;
  }
  return false;
}

bool Scheduler::Step() { return PopAndRun(); }

std::uint64_t Scheduler::RunUntil(host::Time deadline) {
  std::uint64_t ran = 0;
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (cancelled_.count(top.id) != 0) {
      cancelled_.erase(top.id);
      queue_.pop();
      continue;
    }
    if (top.at > deadline) break;
    if (PopAndRun()) ++ran;
  }
  if (now_ < deadline) now_ = deadline;
  return ran;
}

std::uint64_t Scheduler::RunToQuiescence(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (ran < max_events && PopAndRun()) ++ran;
  return ran;
}

}  // namespace vsr::sim
