// The discrete-event simulator core.
//
// This replaces the OMNeT++ framework the paper built on: a clock plus an
// event queue plus helpers for relative scheduling and periodic tasks.
// Everything in the datacenter model is driven by callbacks scheduled here;
// there is no time-stepping loop, so simulating a week of wall time costs
// only as many steps as there are state changes (the paper's "time scale can
// be accelerated" property falls out of the event-driven design).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "support/contracts.hpp"

namespace easched::sim {

/// Hook interface for run-time validation (see validate/). The simulator
/// notifies the attached observer on every dispatched event; with no
/// observer attached the cost is one pointer test.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_event_dispatched(SimTime t) = 0;
};

class Simulator {
 public:
  /// Current simulation time. Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t`. Requires t >= now(). Accepts any
  /// void() callable; small captures are stored inline in the event pool.
  template <typename F>
  EventId at(SimTime t, F&& fn) {
    EA_EXPECTS(t >= now_);
    return queue_.push(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after a delay of `dt` seconds. Requires dt >= 0.
  template <typename F>
  EventId after(SimTime dt, F&& fn) {
    EA_EXPECTS(dt >= 0);
    return queue_.push(now_ + dt, std::forward<F>(fn));
  }

  /// Posts a presorted batch of events: event i calls `fire(i)` at
  /// `times[i]`. Requires non-decreasing times, the first >= now(). The
  /// batch takes one contiguous block of sequence numbers from the queue,
  /// so it dispatches exactly as `times.size()` at() calls in index order
  /// would, ties included, while the heap holds none of it. Stream events
  /// cannot be cancelled.
  void stream(std::vector<SimTime> times,
              std::function<void(std::size_t)> fire);

  /// Moves the event `id`, last posted at `posted`, to fire `fn` at `t`.
  /// When `id` is still pending and `t == posted`, the event is kept as it
  /// is, with its place among same-time events (see event_queue.hpp), and
  /// counted in kept(). Otherwise `id` is cancelled (a no-op once fired)
  /// and `fn` posted at `t`. `fn` must do what the pending event does.
  /// Returns the id of the pending event.
  template <typename F>
  EventId repost(EventId id, SimTime posted, SimTime t, F&& fn) {
    if (t == posted && queue_.live(id)) {
      ++kept_;
      return id;
    }
    queue_.cancel(id);
    return at(t, std::forward<F>(fn));
  }

  /// Schedules `fn` every `period` seconds, first firing at now() + period,
  /// until the returned handle is cancelled via `cancel_periodic()` or the
  /// run ends. Requires period > 0.
  struct PeriodicHandle {
    std::uint64_t key = 0;
  };
  PeriodicHandle every(SimTime period, std::function<void()> fn);
  void cancel_periodic(PeriodicHandle handle);

  /// Cancels a pending one-shot event (no-op if already fired/cancelled).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs until the queue drains or simulation time would exceed `horizon`;
  /// on return now() == horizon if events remained past it. Events exactly
  /// at the horizon still fire.
  void run_until(SimTime horizon);

  /// Requests the current run() / run_until() to return after the in-flight
  /// event completes.
  void stop() noexcept { stopping_ = true; }

  /// Number of events dispatched so far (for tests and perf reporting).
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_;
  }

  /// Number of successful event cancellations so far.
  [[nodiscard]] std::uint64_t cancelled() const noexcept {
    return queue_.cancelled();
  }

  /// Number of events repost() kept in place.
  [[nodiscard]] std::uint64_t kept() const noexcept { return kept_; }

  /// Live events still pending, stream events included.
  [[nodiscard]] std::size_t pending() const;

  /// Attaches (or detaches, with nullptr) the validation observer. Not
  /// owned; the caller keeps it alive for the duration of the run.
  void set_observer(SimObserver* observer) noexcept { observer_ = observer; }

 private:
  /// A registered periodic task. Held by shared_ptr so the task body stays
  /// alive while it runs even if the body cancels its own registration.
  struct Periodic {
    SimTime period = 0;
    std::function<void()> fn;
    EventId next = kNoEvent;  ///< pending occurrence, for cancel_periodic
  };

  /// A batch posted by stream(); `next` indexes its earliest unfired event,
  /// whose sequence number is `first_seq + next`.
  struct Stream {
    std::vector<SimTime> times;
    std::function<void(std::size_t)> fire;
    std::uint64_t first_seq = 0;
    std::size_t next = 0;
  };

  /// The earliest pending event by (time, seq): a stream head, or the heap
  /// top when `stream` is null.
  struct Next {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Stream* stream = nullptr;
  };

  /// Finds the earliest pending event; false when none is left. Drops
  /// drained streams, so it is called only between dispatches.
  bool next_event(Next& next);
  void dispatch(const Next& next);
  void fire_periodic(std::uint64_t key);

  EventQueue queue_;
  /// Held by pointer: a stream callback may post another stream.
  std::vector<std::unique_ptr<Stream>> streams_;
  SimObserver* observer_ = nullptr;
  SimTime now_ = 0;
  bool stopping_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t kept_ = 0;
  std::uint64_t next_periodic_key_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<Periodic>> periodics_;
};

}  // namespace easched::sim
