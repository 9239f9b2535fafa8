#include "sim/simulator.hpp"

#include <algorithm>
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

void Simulator::stream(std::vector<SimTime> times,
                       std::function<void(std::size_t)> fire) {
  if (times.empty()) return;
  EA_EXPECTS(times.front() >= now_);
  EA_EXPECTS(std::is_sorted(times.begin(), times.end()));
  auto s = std::make_unique<Stream>();
  s->first_seq = queue_.reserve_seq(times.size());
  s->times = std::move(times);
  s->fire = std::move(fire);
  streams_.push_back(std::move(s));
}

std::size_t Simulator::pending() const {
  std::size_t n = queue_.size();
  for (const auto& s : streams_) n += s->times.size() - s->next;
  return n;
}

bool Simulator::next_event(Next& next) {
  bool found = false;
  if (!queue_.empty()) {
    const auto top = queue_.next_key();
    next = Next{top.time, top.seq, nullptr};
    found = true;
  }
  for (auto it = streams_.begin(); it != streams_.end();) {
    Stream& s = **it;
    if (s.next == s.times.size()) {
      it = streams_.erase(it);
      continue;
    }
    const SimTime t = s.times[s.next];
    const std::uint64_t seq = s.first_seq + s.next;
    if (!found || t < next.time || (t == next.time && seq < next.seq)) {
      next = Next{t, seq, &s};
      found = true;
    }
    ++it;
  }
  return found;
}

void Simulator::dispatch(const Next& next) {
  EA_ASSERT(next.time >= now_);
  if (observer_ != nullptr) observer_->on_event_dispatched(next.time);
  now_ = next.time;
  ++dispatched_;
  if (next.stream == nullptr) {
    queue_.pop().action();
  } else {
    // Advance the head first: the callback may post, stop or query
    // pending(), and must see its own event as fired.
    const std::size_t i = next.stream->next++;
    next.stream->fire(i);
  }
}

void Simulator::run() {
  stopping_ = false;
  Next next;
  while (!stopping_ && next_event(next)) dispatch(next);
}

void Simulator::run_until(SimTime horizon) {
  EA_EXPECTS(horizon >= now_);
  stopping_ = false;
  Next next;
  while (!stopping_ && next_event(next) && next.time <= horizon) {
    dispatch(next);
  }
  // When stopped early the clock stays at the stop point; only a run that
  // exhausted the horizon advances to it.
  if (!stopping_ && now_ < horizon) now_ = horizon;
}

}  // namespace easched::sim
