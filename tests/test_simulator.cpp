// Unit tests for the discrete-event simulator core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace easched::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator s;
  std::vector<SimTime> seen;
  s.at(5.0, [&] { seen.push_back(s.now()); });
  s.at(1.5, [&] { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{1.5, 5.0}));
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator s;
  SimTime fired_at = -1;
  s.at(10.0, [&] { s.after(2.5, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator s;
  SimTime fired_at = -1;
  s.at(3.0, [&] { s.after(0.0, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  bool late_fired = false;
  s.at(1.0, [] {});
  s.at(100.0, [&] { late_fired = true; });
  s.run_until(50.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(s.now(), 50.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, RunUntilFiresEventsExactlyAtHorizon) {
  Simulator s;
  bool fired = false;
  s.at(50.0, [&] { fired = true; });
  s.run_until(50.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesToHorizonWhenDrained) {
  Simulator s;
  s.at(1.0, [] {});
  s.run_until(99.0);
  EXPECT_DOUBLE_EQ(s.now(), 99.0);
}

TEST(Simulator, StopFreezesClock) {
  Simulator s;
  s.at(1.0, [&] { s.stop(); });
  s.at(100.0, [] {});
  s.run_until(200.0);
  // Stopped early: the clock must stay at the stop point, not jump to the
  // horizon (this regression diluted every time-averaged metric once).
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, StopInsideRunReturnsPromptly) {
  Simulator s;
  int fired = 0;
  s.at(1.0, [&] {
    ++fired;
    s.stop();
  });
  s.at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunAfterStopResumes) {
  Simulator s;
  int fired = 0;
  s.at(1.0, [&] {
    ++fired;
    s.stop();
  });
  s.at(2.0, [&] { ++fired; });
  s.run();
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator s;
  bool fired = false;
  const EventId id = s.at(1.0, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DispatchedCountsFiredEventsOnly) {
  Simulator s;
  s.at(1.0, [] {});
  const EventId id = s.at(2.0, [] {});
  s.cancel(id);
  s.run();
  EXPECT_EQ(s.dispatched(), 1u);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator s;
  std::vector<SimTime> at;
  s.every(10.0, [&] { at.push_back(s.now()); });
  s.run_until(35.0);
  EXPECT_EQ(at, (std::vector<SimTime>{10.0, 20.0, 30.0}));
}

TEST(Simulator, CancelPeriodicStopsFutureFirings) {
  Simulator s;
  int count = 0;
  const auto handle = s.every(10.0, [&] { ++count; });
  s.at(25.0, [&, handle] { s.cancel_periodic(handle); });
  s.run_until(100.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelPeriodicFromInsideTask) {
  Simulator s;
  int count = 0;
  Simulator::PeriodicHandle handle = s.every(5.0, [&] {
    ++count;
    if (count == 3) s.cancel_periodic(handle);
  });
  s.run_until(1000.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, TwoPeriodicTasksInterleave) {
  Simulator s;
  std::vector<int> order;
  s.every(10.0, [&] { order.push_back(1); });
  s.every(15.0, [&] { order.push_back(2); });
  s.run_until(30.0);
  // t=10:1, t=15:2, t=20:1, t=30: task 2 first (its occurrence was queued
  // at t=15, before task 1 re-armed at t=20 — sequence order breaks ties).
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1}));
}

TEST(Simulator, EventsScheduledDuringRunAreHonored) {
  Simulator s;
  std::vector<int> order;
  s.at(1.0, [&] {
    order.push_back(1);
    s.at(2.0, [&] { order.push_back(3); });
    s.after(0.5, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, StreamTiesFallBetweenEventsPostedBeforeAndAfter) {
  Simulator s;
  std::vector<int> order;
  s.at(5.0, [&] { order.push_back(1); });
  s.stream({5.0, 5.0, 6.0},
           [&](std::size_t i) { order.push_back(10 + static_cast<int>(i)); });
  s.at(5.0, [&] { order.push_back(2); });
  s.at(4.0, [&] { order.push_back(0); });
  EXPECT_EQ(s.pending(), 6u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 2, 12}));
  EXPECT_EQ(s.dispatched(), 6u);
  EXPECT_EQ(s.pending(), 0u);
}

// One seeded script of periodic ticks, one-shot events (some posting
// follow-ups, some cancelling others) and two batches, dispatched to a log.
// The batches go through stream() or through one at() per element in index
// order; nothing else differs, so the two logs must be identical.
class StreamScript {
 public:
  struct Log {
    std::vector<std::pair<SimTime, int>> fired;
    std::vector<std::size_t> pending;  ///< pending() inside each callback
    std::vector<std::pair<SimTime, std::size_t>> stops;  ///< after each run
    std::uint64_t dispatched = 0;
    std::uint64_t cancelled = 0;
    SimTime stop_at = -1;  ///< when the first batch's event 17 stopped
    bool operator==(const Log&) const = default;
  };

  StreamScript(std::uint64_t seed, bool streams)
      : rng_(seed), streams_(streams) {}

  Log run() {
    s_.every(2.0, [this] { record(-1); });  // ties at every even time
    for (int k = 0; k < 20; ++k) post(draw(0), 1000 + k);
    const std::vector<SimTime> a = batch(0, /*stop_index=*/17);
    for (int k = 0; k < 10; ++k) post(draw(0), 2000 + k);
    batch(100, /*stop_index=*/-1);  // interleaves with the first batch
    for (int k = 0; k < 20; ++k) post(draw(0), 3000 + k);
    for (int k = 0; k < 5; ++k) cancel_one();

    s_.run_until(a[10]);  // the horizon is exactly a batch time
    stopped();
    s_.run_until(100.0);  // stop() from the first batch's event 17
    stopped();
    s_.run_until(100.0);
    stopped();
    log_.dispatched = s_.dispatched();
    log_.cancelled = s_.cancelled();
    return log_;
  }

 private:
  static constexpr int kBatch = 30;

  /// A coarse grid of times, so most events tie with others.
  SimTime draw(SimTime from) {
    return from + 0.5 * static_cast<double>(rng_() % 24);
  }

  void post(SimTime t, int label) {
    posted_.push_back(s_.at(t, [this, label] { fire(label); }));
  }

  void cancel_one() { s_.cancel(posted_[rng_() % posted_.size()]); }

  void fire(int label) {
    record(label);
    switch (rng_() % 4) {
      case 0:
        if (follow_ups_ < 40) post(draw(s_.now()), 5000 + follow_ups_++);
        break;
      case 1:
        cancel_one();
        break;
      default:
        break;
    }
  }

  std::vector<SimTime> batch(int first_label, int stop_index) {
    std::vector<SimTime> times(kBatch);
    for (auto& t : times) t = draw(0);
    std::sort(times.begin(), times.end());
    auto body = [this, first_label, stop_index](std::size_t i) {
      fire(first_label + static_cast<int>(i));
      if (static_cast<int>(i) == stop_index) {
        log_.stop_at = s_.now();
        s_.stop();
      }
    };
    if (streams_) {
      s_.stream(times, body);
    } else {
      for (std::size_t i = 0; i < times.size(); ++i) {
        s_.at(times[i], [body, i] { body(i); });
      }
    }
    return times;
  }

  void record(int label) {
    log_.fired.emplace_back(s_.now(), label);
    log_.pending.push_back(s_.pending());
  }

  void stopped() { log_.stops.emplace_back(s_.now(), s_.pending()); }

  Simulator s_;
  std::mt19937_64 rng_;
  bool streams_;
  std::vector<EventId> posted_;
  int follow_ups_ = 0;
  Log log_;
};

TEST(Simulator, StreamDispatchesAsOneAtPerEvent) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const StreamScript::Log want = StreamScript(seed, false).run();
    const StreamScript::Log got = StreamScript(seed, true).run();
    ASSERT_EQ(got, want) << "seed " << seed;
    // Every batch event fired, and a run returned at the stop.
    const auto fired = [&](int label) {
      return std::any_of(got.fired.begin(), got.fired.end(),
                         [label](const auto& f) { return f.second == label; });
    };
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(fired(i) && fired(100 + i)) << "seed " << seed;
    }
    ASSERT_GE(got.stop_at, 0.0) << "seed " << seed;
    ASSERT_TRUE(got.stops[0].first == got.stop_at ||
                got.stops[1].first == got.stop_at)
        << "seed " << seed;
  }
}

TEST(Simulator, RepostKeepsAnEqualTimeEventInItsPlace) {
  Simulator s;
  std::vector<int> order;
  EventId a = s.at(5.0, [&] { order.push_back(1); });
  s.at(5.0, [&] { order.push_back(2); });
  // Same time: the pending event stays, ahead of the event posted after
  // it. A cancel plus push would have fired it second.
  a = s.repost(a, 5.0, 5.0, [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.kept(), 1u);
  EXPECT_EQ(s.cancelled(), 0u);
}

TEST(Simulator, RepostMovesAnEventWhoseTimeChanged) {
  Simulator s;
  std::vector<int> order;
  EventId a = s.at(5.0, [&] { order.push_back(1); });
  s.at(6.0, [&] { order.push_back(2); });
  a = s.repost(a, 5.0, 7.0, [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(s.kept(), 0u);
  EXPECT_EQ(s.cancelled(), 1u);
}

TEST(Simulator, RepostPostsAgainOnceTheEventFired) {
  Simulator s;
  int fired = 0;
  const EventId a = s.at(5.0, [&] { ++fired; });
  s.run();
  s.repost(a, 5.0, 5.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.kept(), 0u);
}

}  // namespace
}  // namespace easched::sim
