#include "timed_policy.hpp"

#include <algorithm>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using easched::datacenter::HostId;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

TimedPolicy::TimedPolicy(std::unique_ptr<easched::sched::Policy> inner,
                         CallLog& log, Pace* pace)
    : inner_(std::move(inner)),
      score_based_(
          dynamic_cast<const easched::core::ScoreBasedPolicy*>(inner_.get())),
      log_(log),
      pace_(pace),
      born_(Clock::now()),
      segment_start_(born_) {}

TimedPolicy::~TimedPolicy() {
  log_.segment_s.push_back(ms_since(segment_start_) / 1000.0);
  log_.lifetime_s = ms_since(born_) / 1000.0;
}

std::vector<easched::sched::Action> TimedPolicy::schedule(
    const easched::sched::SchedContext& ctx) {
  log_.segment_s.push_back(ms_since(segment_start_) / 1000.0);
  if (pace_ != nullptr) pace_->take_if_due();
  segment_start_ = Clock::now();
  // Read before the call: the score-based policy drains the dirty journal.
  const double dirty_frac = static_cast<double>(ctx.dc.fleet_dirty_count()) /
                            static_cast<double>(ctx.dc.num_hosts());
  const Clock::time_point t0 = Clock::now();
  std::vector<easched::sched::Action> actions = inner_->schedule(ctx);
  const double ms = ms_since(t0);

  log_.schedule_ms.push_back(ms);
  log_.decide_ms.push_back(ms);
  log_.queue_len_sum += static_cast<double>(ctx.queue.size());
  log_.queue_len_max = std::max(log_.queue_len_max, ctx.queue.size());
  log_.dirty_frac_sum += dirty_frac;
  // The first-fit and frozen rungs leave last_stats() from an earlier round.
  if (score_based_ != nullptr &&
      (ctx.ladder == easched::resilience::LadderLevel::kFull ||
       ctx.ladder == easched::resilience::LadderLevel::kCachedClimb)) {
    log_.climb_moves += static_cast<std::uint64_t>(
        score_based_->last_stats().moves);
    log_.migration_moves += static_cast<std::uint64_t>(
        score_based_->last_stats().migration_moves);
  }

  log_.digest.f64(ctx.dc.simulator().now());
  log_.digest.u64(actions.size());
  for (const easched::sched::Action& a : actions) {
    log_.digest.u64(static_cast<std::uint64_t>(a.kind));
    log_.digest.u64(a.vm);
    log_.digest.u64(a.host);
  }
  return actions;
}

HostId TimedPolicy::choose_power_on(
    const easched::sched::SchedContext& ctx,
    const std::vector<HostId>& off_hosts) {
  const Clock::time_point t0 = Clock::now();
  const HostId h = inner_->choose_power_on(ctx, off_hosts);
  const double ms = ms_since(t0);
  log_.power_on_ms.push_back(ms);
  if (!log_.decide_ms.empty()) log_.decide_ms.back() += ms;
  log_.digest.u64(0x6f6eULL);  // "on"
  log_.digest.u64(h);
  return h;
}

HostId TimedPolicy::choose_power_off(
    const easched::sched::SchedContext& ctx,
    const std::vector<HostId>& idle_hosts) {
  const Clock::time_point t0 = Clock::now();
  const HostId h = inner_->choose_power_off(ctx, idle_hosts);
  const double ms = ms_since(t0);
  log_.power_off_ms.push_back(ms);
  if (!log_.decide_ms.empty()) log_.decide_ms.back() += ms;
  log_.digest.u64(0x6f6666ULL);  // "off"
  log_.digest.u64(h);
  return h;
}

}  // namespace perfbench
