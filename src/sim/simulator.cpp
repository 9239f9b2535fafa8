#include "sim/simulator.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace easched::sim {

Simulator::PeriodicHandle Simulator::every(SimTime period,
                                           std::function<void()> fn) {
  EA_EXPECTS(period > 0);
  const std::uint64_t key = next_periodic_key_++;
  auto task = std::make_shared<Periodic>();
  task->period = period;
  task->fn = std::move(fn);
  // The queued closure is only (this, key): it fits the event pool's inline
  // buffer, so periodic re-arming never allocates.
  task->next = queue_.push(now_ + period, [this, key] { fire_periodic(key); });
  periodics_.emplace(key, std::move(task));
  return PeriodicHandle{key};
}

void Simulator::fire_periodic(std::uint64_t key) {
  const auto it = periodics_.find(key);
  if (it == periodics_.end()) return;  // cancelled since queued
  // Local copy keeps the task alive while its body runs, even if the body
  // cancels the registration. Re-arm before calling so the body can cancel
  // the next occurrence too.
  const std::shared_ptr<Periodic> task = it->second;
  task->next =
      queue_.push(now_ + task->period, [this, key] { fire_periodic(key); });
  task->fn();
}

void Simulator::cancel_periodic(PeriodicHandle handle) {
  const auto it = periodics_.find(handle.key);
  if (it == periodics_.end()) return;
  queue_.cancel(it->second->next);
  periodics_.erase(it);
}

void Simulator::step() {
  auto fired = queue_.pop();
  EA_ASSERT(fired.time >= now_);
  if (observer_ != nullptr) observer_->on_event_dispatched(fired.time);
  now_ = fired.time;
  ++dispatched_;
  fired.action();
}

void Simulator::run() {
  stopping_ = false;
  while (!stopping_ && !queue_.empty()) step();
}

void Simulator::run_until(SimTime horizon) {
  EA_EXPECTS(horizon >= now_);
  stopping_ = false;
  while (!stopping_ && !queue_.empty() && queue_.next_time() <= horizon) {
    step();
  }
  // When stopped early the clock stays at the stop point; only a run that
  // exhausted the horizon advances to it.
  if (!stopping_ && now_ < horizon) now_ = horizon;
}

}  // namespace easched::sim
