#include "resilience/resilience.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "support/key_table.hpp"
#include "validate/validate.hpp"

namespace easched::resilience {

using obs::EventKind;

const char* to_string(LadderLevel level) noexcept {
  switch (level) {
    case LadderLevel::kFull:        return "full";
    case LadderLevel::kCachedClimb: return "cached-climb";
    case LadderLevel::kFirstFit:    return "first-fit";
    case LadderLevel::kFrozen:      return "frozen";
  }
  return "?";
}

const char* rung_name(std::size_t rung) noexcept {
  return rung < static_cast<std::size_t>(kNumLadderLevels)
             ? to_string(static_cast<LadderLevel>(rung))
             : "beyond";
}

const char* to_string(HostHealth health) noexcept {
  switch (health) {
    case HostHealth::kHealthy:     return "healthy";
    case HostHealth::kSuspect:     return "suspect";
    case HostHealth::kQuarantined: return "quarantined";
    case HostHealth::kDead:        return "dead";
  }
  return "?";
}

const char* to_string(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAdmit: return "admit";
    case Admission::kDefer: return "defer";
    case Admission::kShed:  return "shed";
  }
  return "?";
}

namespace {

using support::at;
using B = faults::BreakerPolicy;

constexpr const char* kSpec = "resilience spec";

constexpr support::KeyRow<ResilienceConfig> kSpecKeys[] = {
    {"budget", at<&ResilienceConfig::solver_budget_moves>},
    {"degraded_budget", at<&ResilienceConfig::degraded_budget_moves>},
    {"recovery_rounds", at<&ResilienceConfig::recovery_rounds>},
    {"max_pending", at<&ResilienceConfig::max_pending>},
    {"defer_fill", at<&ResilienceConfig::defer_fill>},
    {"shed_fill", at<&ResilienceConfig::shed_fill>},
    {"defer_delay", at<&ResilienceConfig::defer_delay_s>},
    {"max_defers", at<&ResilienceConfig::max_defers_per_job>},
    {"effort_alpha", at<&ResilienceConfig::effort_alpha>},
    {"effort_watermark", at<&ResilienceConfig::effort_defer_watermark>},
    {"breaker_threshold", at<&ResilienceConfig::breakers, &B::threshold>},
    {"probe_after", at<&ResilienceConfig::breakers, &B::probe_after_s>},
    {"dead_after", at<&ResilienceConfig::breakers, &B::dead_after>},
};

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::invalid_argument(std::string(kSpec) + ": " + why);
}

}  // namespace

ResilienceConfig parse_resilience_spec(const std::string& spec) {
  ResilienceConfig c;
  c.enabled = spec != "off";
  if (spec == "on" || spec == "off") return c;
  support::for_each_pair(spec, kSpec, [&c](std::string_view key,
                                           std::string_view value) {
    if (!support::read_key(kSpecKeys, c, key, value, kSpec)) {
      support::unknown_key(kSpec, key);
    }
  });
  if (c.recovery_rounds < 1) bad_spec("recovery_rounds must be >= 1");
  if (c.defer_fill > c.shed_fill) bad_spec("defer_fill must be <= shed_fill");
  if (c.effort_alpha <= 0 || c.effort_alpha > 1)
    bad_spec("effort_alpha must be in (0, 1]");
  return c;
}

std::string to_string(const ResilienceConfig& config) {
  std::string out;
  support::write_keys(out, kSpecKeys, config, ',');
  return out;
}

ResilienceController::ResilienceController(ResilienceConfig config,
                                           metrics::Recorder& recorder,
                                           std::size_t num_hosts)
    : config_(config), recorder_(recorder), breakers_(num_hosts) {}

// ---- round lifecycle ------------------------------------------------------

void ResilienceController::begin_round(sim::SimTime) {
  in_round_ = true;
  round_moves_ = 0;
}

void ResilienceController::note_solver_effort(sim::SimTime, int moves) {
  round_moves_ += moves;
  const int budget = solver_budget();
  if (budget > 0 && round_moves_ >= budget) {
    if (!breach_this_round_) ++recorder_.counts.solver_breaches;
    breach_this_round_ = true;
  }
}

void ResilienceController::end_round(sim::SimTime now) {
  if (!in_round_) return;
  in_round_ = false;
  const bool watchdog_on = config_.enabled && config_.solver_budget_moves > 0;
  if (watchdog_on) {
    if (breach_this_round_) {
      healthy_rounds_ = 0;
      if (level_ != LadderLevel::kFrozen) {
        shift_ladder(now,
                     static_cast<LadderLevel>(static_cast<int>(level_) + 1),
                     /*breach=*/true);
      }
    } else {
      ++healthy_rounds_;
      if (level_ != LadderLevel::kFull &&
          healthy_rounds_ >= config_.recovery_rounds) {
        shift_ladder(now,
                     static_cast<LadderLevel>(static_cast<int>(level_) - 1),
                     /*breach=*/false);
        healthy_rounds_ = 0;
      }
    }
  }
  // Deterministic round-duration proxy: EWMA of solver moves per round.
  effort_ewma_ = config_.effort_alpha * round_moves_ +
                 (1.0 - config_.effort_alpha) * effort_ewma_;
  breach_this_round_ = false;
}

int ResilienceController::solver_budget() const noexcept {
  switch (level_) {
    case LadderLevel::kFull:
      return config_.enabled ? config_.solver_budget_moves : 0;
    case LadderLevel::kCachedClimb:
    case LadderLevel::kFirstFit:
      // The first-fit rung shares the tightened budget: its placements
      // count as effort, so a queue even first-fit cannot keep up with
      // breaches one more time and freezes the system.
      return config_.degraded_budget_moves;
    case LadderLevel::kFrozen:
      return 0;  // nothing runs; recovery is the only way out
  }
  return 0;
}

void ResilienceController::shift_ladder(sim::SimTime now, LadderLevel to,
                                        bool breach) {
  if (auto* ck = validate::checker(recorder_)) {
    ck->check_ladder_shift(now, level_, to, breach);
  }
  if (auto* ev = obs::record(recorder_, now, EventKind::kLadderShift)) {
    ev->label = std::string(to_string(level_)) + "->" + to_string(to);
    ev->arg("from", static_cast<int>(level_))
        .arg("to", static_cast<int>(to))
        .arg("breach", breach ? 1 : 0);
  }
  if (breach) {
    ++recorder_.counts.ladder_downshifts;
  } else {
    ++recorder_.counts.ladder_upshifts;
  }
  level_ = to;
  max_level_ = std::max(max_level_, to);
}

// ---- admission control ----------------------------------------------------

Admission ResilienceController::admit(sim::SimTime now,
                                      std::size_t queue_depth,
                                      int defers_so_far, std::int64_t vm) {
  if (!config_.enabled || config_.max_pending == 0) return Admission::kAdmit;

  const double depth = static_cast<double>(queue_depth);
  const double cap = static_cast<double>(config_.max_pending);
  const bool shed_tier = depth >= config_.shed_fill * cap;
  const bool defer_tier = depth >= config_.defer_fill * cap;
  const bool effort_hot = config_.effort_defer_watermark > 0 &&
                          effort_ewma_ >= config_.effort_defer_watermark;

  Admission verdict = Admission::kAdmit;
  if (shed_tier) {
    verdict = Admission::kShed;
  } else if (defer_tier || effort_hot) {
    // A job bounced too often is shed, so saturation cannot defer forever.
    verdict = defers_so_far >= config_.max_defers_per_job ? Admission::kShed
                                                          : Admission::kDefer;
  }

  if (verdict == Admission::kShed) {
    if (auto* ev = obs::record(recorder_, now, EventKind::kJobShed)) {
      ev->vm = vm;
      ev->arg("queue", depth);
    }
  } else if (verdict == Admission::kDefer) {
    if (auto* ev = obs::record(recorder_, now, EventKind::kJobDeferred)) {
      ev->vm = vm;
      ev->arg("queue", depth).arg("defers", defers_so_far + 1);
    }
  }
  return verdict;
}

// ---- circuit breakers -----------------------------------------------------

void ResilienceController::set_health(sim::SimTime now, datacenter::HostId h,
                                      HostHealth to) {
  Breaker& b = breakers_[h];
  if (b.state == to) return;
  if (auto* ck = validate::checker(recorder_)) {
    ck->check_breaker_transition(now, h, b.state, to);
  }
  if (b.state == HostHealth::kHealthy && to != HostHealth::kHealthy) {
    b.not_healthy_pos = not_healthy_.size();
    not_healthy_.push_back(h);
  } else if (b.state != HostHealth::kHealthy && to == HostHealth::kHealthy) {
    const datacenter::HostId last = not_healthy_.back();
    not_healthy_[b.not_healthy_pos] = last;
    breakers_[last].not_healthy_pos = b.not_healthy_pos;
    not_healthy_.pop_back();
  }
  b.state = to;
}

void ResilienceController::open_breaker(sim::SimTime now, datacenter::HostId h,
                                        Breaker& b) {
  set_health(now, h, HostHealth::kSuspect);
  b.opened_at = now;
  b.open_streak = 1;
  b.probe_inflight = false;
  if (auto* ev = obs::record(recorder_, now, EventKind::kBreakerOpen)) {
    ev->host = h;
    ev->arg("failures", b.consecutive_failures);
  }
}

void ResilienceController::note_op_start(datacenter::HostId h,
                                         sim::SimTime now) {
  if (!config_.enabled || config_.breakers.threshold == 0 ||
      h >= breakers_.size()) {
    return;
  }
  Breaker& b = breakers_[h];
  if (b.state == HostHealth::kSuspect && !b.probe_inflight &&
      now - b.opened_at >= config_.breakers.probe_after_s) {
    b.probe_inflight = true;
    if (auto* ev = obs::record(recorder_, now, EventKind::kBreakerProbe)) {
      ev->host = h;
    }
  }
}

void ResilienceController::note_op_success(datacenter::HostId h,
                                           sim::SimTime now) {
  if (!config_.enabled || config_.breakers.threshold == 0 ||
      h >= breakers_.size()) {
    return;
  }
  Breaker& b = breakers_[h];
  b.consecutive_failures = 0;
  if (b.probe_inflight) {
    b.probe_inflight = false;
    if (b.state == HostHealth::kSuspect) {
      set_health(now, h, HostHealth::kHealthy);
      b.open_streak = 0;
      if (auto* ev = obs::record(recorder_, now, EventKind::kBreakerClose)) {
        ev->host = h;
      }
    }
  }
}

void ResilienceController::note_op_failure(datacenter::HostId h,
                                           sim::SimTime now) {
  if (!config_.enabled || config_.breakers.threshold == 0 ||
      h >= breakers_.size()) {
    return;
  }
  Breaker& b = breakers_[h];
  if (b.probe_inflight) {
    // The half-open probe failed: re-open, and write the host off once it
    // has burned too many probes without an intervening close.
    b.probe_inflight = false;
    if (b.state == HostHealth::kSuspect) {
      b.opened_at = now;
      ++b.open_streak;
      if (auto* ev = obs::record(recorder_, now, EventKind::kBreakerOpen)) {
        ev->host = h;
        ev->arg("failures", b.consecutive_failures + 1).arg("reopen", 1);
      }
      if (config_.breakers.dead_after > 0 &&
          b.open_streak >= config_.breakers.dead_after) {
        set_health(now, h, HostHealth::kDead);
        if (auto* ev = obs::record(recorder_, now, EventKind::kHostDead)) {
          ev->host = h;
        }
      }
      return;
    }
  }
  ++b.consecutive_failures;
  if (b.state == HostHealth::kHealthy &&
      b.consecutive_failures >= config_.breakers.threshold) {
    open_breaker(now, h, b);
  }
}

void ResilienceController::note_host_crashed(datacenter::HostId h,
                                             sim::SimTime now) {
  if (!config_.enabled || config_.breakers.threshold == 0 ||
      h >= breakers_.size()) {
    return;
  }
  Breaker& b = breakers_[h];
  b.probe_inflight = false;
  ++b.consecutive_failures;
  if (b.state == HostHealth::kHealthy) open_breaker(now, h, b);
}

void ResilienceController::note_host_quarantined(datacenter::HostId h,
                                                 sim::SimTime now) {
  if (!config_.enabled || h >= breakers_.size()) return;
  Breaker& b = breakers_[h];
  if (b.state == HostHealth::kHealthy || b.state == HostHealth::kSuspect) {
    set_health(now, h, HostHealth::kQuarantined);
    b.probe_inflight = false;
  }
}

void ResilienceController::note_host_unquarantined(datacenter::HostId h,
                                                   sim::SimTime now) {
  if (!config_.enabled || h >= breakers_.size()) return;
  Breaker& b = breakers_[h];
  if (b.state == HostHealth::kQuarantined) {
    // Cooldown release hands the host back as Suspect; it must pass a
    // half-open probe before taking load again (unless breakers are off).
    set_health(now, h, HostHealth::kSuspect);
    b.opened_at = now;
    b.open_streak = std::max(b.open_streak, 1);
    b.consecutive_failures = 0;
    b.probe_inflight = false;
  }
}

void ResilienceController::note_host_repaired(datacenter::HostId h,
                                              sim::SimTime now) {
  if (!config_.enabled || h >= breakers_.size()) return;
  Breaker& b = breakers_[h];
  if (b.state == HostHealth::kDead) {
    set_health(now, h, HostHealth::kSuspect);
    b.opened_at = now;
    b.open_streak = 1;
    b.consecutive_failures = 0;
    b.probe_inflight = false;
  }
}

bool ResilienceController::allows_placement(datacenter::HostId h,
                                            sim::SimTime now) const {
  if (!config_.enabled || config_.breakers.threshold == 0 ||
      h >= breakers_.size()) {
    return true;
  }
  const Breaker& b = breakers_[h];
  switch (b.state) {
    case HostHealth::kHealthy:
      return true;
    case HostHealth::kSuspect:
      // One half-open probe at a time, and only after the probe delay.
      return !b.probe_inflight &&
             now - b.opened_at >= config_.breakers.probe_after_s;
    case HostHealth::kQuarantined:
    case HostHealth::kDead:
      return false;
  }
  return true;
}

bool ResilienceController::allows_power_on(datacenter::HostId h) const {
  if (!config_.enabled || config_.breakers.threshold == 0 ||
      h >= breakers_.size()) {
    return true;
  }
  return breakers_[h].state != HostHealth::kDead;
}

HostHealth ResilienceController::health(datacenter::HostId h) const {
  if (h >= breakers_.size()) return HostHealth::kHealthy;
  return breakers_[h].state;
}

std::size_t ResilienceController::breakers_not_healthy() const noexcept {
  return not_healthy_.size();
}

}  // namespace easched::resilience
