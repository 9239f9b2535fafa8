// The benchmark's view into the scheduler: a sched::Policy wrapper that owns
// the real policy and times every call the driver and the power controller
// make into it.
//
// run_experiment() destroys the policy instance before it returns, so the
// wrapper keeps nothing itself: it writes timings, counters and the
// decision digest into a CallLog that the benchmark owns and that outlives
// the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/score_based_policy.hpp"
#include "pace.hpp"
#include "sched/policy.hpp"
#include "stats.hpp"

namespace perfbench {

struct CallLog {
  /// Per scheduling round: schedule() plus the power picks the controller
  /// made after it in the same round.
  std::vector<double> decide_ms;
  std::vector<double> schedule_ms;
  std::vector<double> power_off_ms;
  std::vector<double> power_on_ms;

  // Deterministic work counts, summed over rounds.
  double queue_len_sum = 0;
  std::size_t queue_len_max = 0;
  double dirty_frac_sum = 0;  ///< Datacenter::fleet_dirty_count() / hosts
  std::uint64_t climb_moves = 0;
  std::uint64_t migration_moves = 0;

  /// Every action schedule() returned and every power pick, with the
  /// simulated time of its round.
  Digest digest;

  /// Wall seconds from the wrapper's construction to its destruction: the
  /// run, as run_experiment() builds and drops the policy around it.
  double lifetime_s = 0;
  /// The lifetime cut at the entry of every schedule() call: segment i ends
  /// where round i begins, the last one at the destruction. Pace slices fall
  /// between segments, not in them. Each segment does the same work in
  /// every run of one seed.
  std::vector<double> segment_s;
};

class TimedPolicy final : public easched::sched::Policy {
 public:
  /// With a `pace`, every schedule() call first takes a Pace slice when one
  /// is due; the slices are not part of any segment or round.
  TimedPolicy(std::unique_ptr<easched::sched::Policy> inner, CallLog& log,
              Pace* pace = nullptr);
  ~TimedPolicy() override;
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  TimedPolicy(TimedPolicy&&) = delete;
  TimedPolicy& operator=(TimedPolicy&&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool uses_migration() const override {
    return inner_->uses_migration();
  }
  std::vector<easched::sched::Action> schedule(
      const easched::sched::SchedContext& ctx) override;
  easched::datacenter::HostId choose_power_on(
      const easched::sched::SchedContext& ctx,
      const std::vector<easched::datacenter::HostId>& off_hosts) override;
  easched::datacenter::HostId choose_power_off(
      const easched::sched::SchedContext& ctx,
      const std::vector<easched::datacenter::HostId>& idle_hosts) override;

 private:
  std::unique_ptr<easched::sched::Policy> inner_;
  /// The inner policy when it is score-based (for its hill-climb stats).
  const easched::core::ScoreBasedPolicy* score_based_;
  CallLog& log_;
  Pace* pace_;
  std::chrono::steady_clock::time_point born_;
  /// Where the current segment began.
  std::chrono::steady_clock::time_point segment_start_;
};

}  // namespace perfbench
