#include "sched/driver.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "support/contracts.hpp"
#include "validate/validate.hpp"
#include "workload/satisfaction.hpp"

namespace easched::sched {

using datacenter::HostId;
using datacenter::VmId;
using datacenter::VmState;

// ---- Policy default power hooks -------------------------------------------

HostId Policy::choose_power_on(const SchedContext& ctx,
                               const std::vector<HostId>& off_hosts) {
  EA_EXPECTS(!off_hosts.empty());
  HostId best = off_hosts.front();
  for (HostId h : off_hosts) {
    const auto& a = ctx.dc.host(h).spec;
    const auto& b = ctx.dc.host(best).spec;
    const auto key = [](const datacenter::HostSpec& s) {
      return std::tuple{s.boot_time_s, s.creation_cost_s, -s.reliability};
    };
    if (key(a) < key(b)) best = h;
  }
  return best;
}

HostId Policy::choose_power_off(const SchedContext& ctx,
                                const std::vector<HostId>& idle_hosts) {
  EA_EXPECTS(!idle_hosts.empty());
  HostId best = idle_hosts.front();
  for (HostId h : idle_hosts) {
    const auto& a = ctx.dc.host(h).spec;
    const auto& b = ctx.dc.host(best).spec;
    // Shed the nodes with the worst virtualization overheads first.
    const auto key = [](const datacenter::HostSpec& s) {
      return std::tuple{-s.creation_cost_s, -s.migration_cost_s,
                        s.reliability};
    };
    if (key(a) < key(b)) best = h;
  }
  return best;
}

// ---- SchedulerDriver -------------------------------------------------------

SchedulerDriver::SchedulerDriver(sim::Simulator& simulator,
                                 datacenter::Datacenter& dc, Policy& policy,
                                 DriverConfig config)
    : sim_(simulator),
      dc_(dc),
      policy_(policy),
      config_(config),
      power_(config.power),
      adaptive_(config.adaptive, config.power),
      rng_(config.seed),
      // A named stream, not seed^constant: the XOR form collides with the
      // default-seeded Rng at seed 0 (the constant is the default seed) and
      // with the policy stream of seed s^constant for every s — either way
      // the backoff jitter would replay another subsystem's draws.
      retry_rng_(support::Rng::named(config.seed, "sched.retry")) {
  dc_.on_vm_finished = [this](VmId v) {
    ++finished_;
    round();
    if (on_job_finished) on_job_finished(v);
    if (all_done() && on_all_done) on_all_done();
  };
  dc_.on_vm_ready = [this](VmId v) {
    note_recovered(v);
    round();
  };
  dc_.on_migration_done = [this](VmId v) {
    // A completed migration ends any migrate-retry episode.
    if (v < retry_.size()) retry_[v] = RetryState{};
    round();
  };
  dc_.on_host_online = [this](HostId) { round(); };
  dc_.on_host_off = [this](HostId) { /* no round needed */ };
  dc_.on_host_repaired = [this](HostId) { round(); };
  dc_.on_host_failed = [this](HostId, std::vector<VmId> lost) {
    // Failed VMs return to the virtual host with priority (they already
    // held resources); re-scheduling is a new round (section III-A).
    for (VmId v : lost) mark_disrupted(v);
    queue_.insert(queue_.begin(), lost.begin(), lost.end());
    round();
  };
  dc_.on_operation_failed = [this](faults::FaultOp op, VmId v, HostId,
                                   bool) {
    switch (op) {
      case faults::FaultOp::kCreate:
        // The Datacenter already put the VM back in Queued; re-enter the
        // virtual host with priority and gate the next attempt.
        queue_.insert(queue_.begin(), v);
        schedule_retry(v, /*track_recovery=*/true);
        break;
      case faults::FaultOp::kMigrate:
        // Rolled back to the source: the VM keeps running, but further
        // migrations of it are backed off.
        schedule_retry(v, /*track_recovery=*/false);
        break;
      case faults::FaultOp::kCheckpoint:
      case faults::FaultOp::kPowerOn:
      case faults::FaultOp::kPowerOff:
        break;  // periodic/controller-driven; no per-VM retry
    }
    round();
  };
  dc_.on_host_boot_failed = [this](HostId) { round(); };
  dc_.on_host_quarantined = [this](HostId) { round(); };  // start evacuating
  dc_.on_host_unquarantined = [this](HostId) { round(); };

  if (config_.controller_period_s > 0) {
    sim_.every(config_.controller_period_s, [this] { round(); });
  }
  if (config_.sla_check_period_s > 0 &&
      (config_.sla_alarms || config_.dynamic_sla_boost)) {
    sim_.every(config_.sla_check_period_s, [this] { sla_scan(); });
  }
  if (config_.adaptive.enabled) {
    sim_.every(config_.adaptive.window_s, [this] { adaptive_window(); });
  }
}

void SchedulerDriver::adaptive_window() {
  const auto& records = dc_.recorder().jobs.records();
  double sum = 0;
  std::size_t count = 0;
  for (std::size_t i = jobs_seen_by_adaptive_; i < records.size(); ++i) {
    sum += records[i].satisfaction;
    ++count;
  }
  jobs_seen_by_adaptive_ = records.size();
  const auto next =
      adaptive_.adjust(count > 0 ? sum / static_cast<double>(count) : 0.0,
                       count);
  power_.set_thresholds(next.lambda_min, next.lambda_max);
}

void SchedulerDriver::submit_workload(const workload::Workload& jobs) {
  for (const auto& job : jobs) {
    sim_.at(job.submit, [this, job] { on_arrival(job); });
  }
  submitted_ += jobs.size();
}

void SchedulerDriver::on_arrival(const workload::Job& job, int defers) {
  if (auto* rc = resilience::controller(dc_.recorder())) {
    switch (rc->admit(sim_.now(), queue_.size(), defers)) {
      case resilience::Admission::kAdmit:
        break;
      case resilience::Admission::kDefer:
        // Re-attempt admission after the backpressure delay; the job has
        // not been materialised, so nothing else changes.
        sim_.after(rc->defer_delay_s(),
                   [this, job, defers] { on_arrival(job, defers + 1); });
        return;
      case resilience::Admission::kShed:
        ++shed_;
        if (all_done() && on_all_done) on_all_done();
        return;
    }
  }
  const VmId v = dc_.admit_job(job);
  if (auto* tr = obs::tracer(dc_.recorder())) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kJobArrival);
    e.vm = v;
    e.arg("cpu_pct", job.cpu_pct).arg("mem_mb", job.mem_mb);
  }
  boosted_.resize(std::max<std::size_t>(boosted_.size(), v + 1), false);
  queue_.push_back(v);
  round();
}

VmId SchedulerDriver::submit_job_now(const workload::Job& job) {
  workload::Job stamped = job;
  stamped.submit = sim_.now();
  ++submitted_;
  const VmId v = dc_.admit_job(stamped);
  if (auto* tr = obs::tracer(dc_.recorder())) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kJobArrival);
    e.vm = v;
    e.arg("cpu_pct", stamped.cpu_pct).arg("mem_mb", stamped.mem_mb);
  }
  boosted_.resize(std::max<std::size_t>(boosted_.size(), v + 1), false);
  queue_.push_back(v);
  round();
  return v;
}

void SchedulerDriver::remove_from_queue(VmId v) {
  const auto it = std::find(queue_.begin(), queue_.end(), v);
  EA_ASSERT(it != queue_.end());
  queue_.erase(it);
}

std::size_t SchedulerDriver::apply(const std::vector<Action>& actions) {
  std::vector<Action> applied;
  for (const Action& a : actions) {
    const auto& vm = dc_.vm(a.vm);
    switch (a.kind) {
      case Action::Kind::kPlace:
        // Validate defensively: the policy may have raced a state change
        // (e.g. two actions for one VM).
        if (vm.state != VmState::kQueued) break;
        if (in_backoff(a.vm)) break;
        if (dc_.host(a.host).state != datacenter::HostState::kOn) break;
        if (!dc_.fits_memory(a.host, a.vm)) break;
        remove_from_queue(a.vm);
        dc_.place(a.vm, a.host);
        applied.push_back(a);
        break;
      case Action::Kind::kMigrate:
        if (!policy_.uses_migration()) break;
        if (vm.state != VmState::kRunning || vm.host == a.host) break;
        if (in_backoff(a.vm)) break;
        if (dc_.host(a.host).state != datacenter::HostState::kOn) break;
        if (!dc_.fits_memory(a.host, a.vm)) break;
        dc_.migrate(a.vm, a.host);
        applied.push_back(a);
        break;
    }
  }
  if (on_actions && !applied.empty()) on_actions(sim_.now(), applied);
  return applied.size();
}

const char* to_string(QueueOrder order) noexcept {
  switch (order) {
    case QueueOrder::kFifo:
      return "fifo";
    case QueueOrder::kEdf:
      return "edf";
    case QueueOrder::kSjf:
      return "sjf";
  }
  return "?";
}

void SchedulerDriver::round() {
  if (in_round_) return;  // actions can re-trigger notifications
  in_round_ = true;
  auto* rc = resilience::controller(dc_.recorder());
  if (rc != nullptr) rc->begin_round(sim_.now());
  obs::PhaseProfiler* prof = obs::profiler(dc_.recorder());
  obs::PhaseProfiler::Scope round_scope(prof, obs::Phase::kRound);
  switch (config_.queue_order) {
    case QueueOrder::kFifo:
      break;  // insertion order (failures re-enter at the front)
    case QueueOrder::kEdf:
      std::stable_sort(queue_.begin(), queue_.end(),
                       [this](VmId a, VmId b) {
                         const auto& ja = dc_.vm(a).job;
                         const auto& jb = dc_.vm(b).job;
                         return ja.submit + ja.deadline_seconds() <
                                jb.submit + jb.deadline_seconds();
                       });
      break;
    case QueueOrder::kSjf:
      std::stable_sort(queue_.begin(), queue_.end(),
                       [this](VmId a, VmId b) {
                         return dc_.vm(a).job.dedicated_seconds <
                                dc_.vm(b).job.dedicated_seconds;
                       });
      break;
  }
  // Hold VMs serving a retry backoff out of this round's view. The common
  // (fault-free) path hands the policy the live queue unfiltered so the
  // no-injector behaviour is bit-identical.
  const std::vector<VmId>* view = &queue_;
  if (backoff_count() > 0) {
    eligible_.clear();
    for (VmId v : queue_) {
      if (!in_backoff(v)) eligible_.push_back(v);
    }
    view = &eligible_;
  }
  SchedContext ctx{dc_, *view, rng_};
  if (rc != nullptr) {
    ctx.ladder = rc->ladder();
    ctx.solver_budget = rc->solver_budget();
  }
  if (auto* el = obs::ledger(dc_.recorder())) {
    // Attribute joules from here on to the rung this round runs at.
    el->set_rung(sim_.now(), static_cast<int>(ctx.ladder));
  }
  const std::vector<Action> actions = policy_.schedule(ctx);
  std::size_t applied = 0;
  {
    obs::PhaseProfiler::Scope scope(prof, obs::Phase::kActuate);
    applied = apply(actions);
  }
  progress_drains();
  evacuate_quarantined();
  {
    obs::PhaseProfiler::Scope scope(prof, obs::Phase::kPower);
    power_.update(ctx, dc_, policy_);
  }
  if (auto* tr = obs::tracer(dc_.recorder())) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kRound);
    e.arg("queue", static_cast<double>(queue_.size()))
        .arg("eligible", static_cast<double>(view->size()))
        .arg("actions", static_cast<double>(applied));
    if (prof != nullptr) e.arg("wall_round_ms", round_scope.elapsed_ms());
  }
  // Close the watchdog window: the controller judges this round's solver
  // effort and walks the degradation ladder before the next round begins.
  if (rc != nullptr) rc->end_round(sim_.now());
  // End-of-round sync point: every actuator decision of this round has
  // been applied, so the world must be coherent. Full invariant sweep.
  if (auto* ck = validate::checker(dc_.recorder())) {
    ck->check_datacenter(dc_);
  }
  in_round_ = false;
}

std::size_t SchedulerDriver::backoff_count() const {
  // Drop the VMs whose gate has passed (or was reset). Simulated time
  // never runs backwards, so only schedule_retry() can gate them again.
  const sim::SimTime now = sim_.now();
  std::erase_if(backoff_,
                [&](VmId v) { return !(retry_[v].not_before > now); });
  return backoff_.size();
}

SchedulerDriver::RetryState& SchedulerDriver::retry_state(VmId v) {
  if (v >= retry_.size()) retry_.resize(v + 1);
  return retry_[v];
}

bool SchedulerDriver::in_backoff(VmId v) const {
  return v < retry_.size() && retry_[v].not_before > sim_.now();
}

void SchedulerDriver::schedule_retry(VmId v, bool track_recovery) {
  RetryState& r = retry_state(v);
  ++r.attempts;
  if (track_recovery && r.failed_at < 0) r.failed_at = sim_.now();
  const RetryPolicy& rp = config_.retry;
  const double exponential =
      rp.base_s * std::pow(2.0, static_cast<double>(r.attempts - 1));
  const double delay = std::min(rp.cap_s, exponential) *
                       (1.0 + rp.jitter * retry_rng_.uniform01());
  r.not_before = sim_.now() + delay;
  if (std::find(backoff_.begin(), backoff_.end(), v) == backoff_.end()) {
    backoff_.push_back(v);
  }
  ++dc_.recorder().counts.retries;
  if (auto* tr = obs::tracer(dc_.recorder())) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kRetry);
    e.vm = v;
    e.arg("attempt", static_cast<double>(r.attempts)).arg("delay_s", delay);
  }
  sim_.after(delay, [this] { round(); });
}

void SchedulerDriver::mark_disrupted(VmId v) {
  RetryState& r = retry_state(v);
  if (r.failed_at < 0) r.failed_at = sim_.now();
}

void SchedulerDriver::note_recovered(VmId v) {
  if (v >= retry_.size()) return;
  RetryState& r = retry_[v];
  if (r.failed_at >= 0) {
    dc_.recorder().recovery_s.push_back(sim_.now() - r.failed_at);
  }
  r = RetryState{};
}

void SchedulerDriver::drain_host(datacenter::HostId h) {
  if (is_draining(h)) return;
  dc_.set_maintenance(h, true);
  draining_.push_back(h);
  round();
}

void SchedulerDriver::cancel_drain(datacenter::HostId h) {
  const auto it = std::find(draining_.begin(), draining_.end(), h);
  if (it != draining_.end()) draining_.erase(it);
  // Clear the flag even when the drain already completed (the host is Off
  // with maintenance still set so the controller leaves it down).
  dc_.set_maintenance(h, false);
}

bool SchedulerDriver::is_draining(datacenter::HostId h) const {
  return std::find(draining_.begin(), draining_.end(), h) != draining_.end();
}

void SchedulerDriver::progress_drains() {
  for (std::size_t i = 0; i < draining_.size();) {
    const datacenter::HostId h = draining_[i];
    const auto& host = dc_.host(h);
    if (host.is_idle_on()) {
      dc_.power_off(h);
      draining_.erase(draining_.begin() + static_cast<long>(i));
      continue;  // maintenance flag stays: no controller turn-on
    }
    // Evict what can be evicted now; creations/migrations in flight finish
    // first and are retried on a later round.
    const std::vector<VmId> residents = host.residents;  // copy: mutation
    for (VmId v : residents) {
      if (dc_.vm(v).state != VmState::kRunning) continue;
      if (in_backoff(v)) continue;  // its last migration just failed
      const datacenter::HostId target = policies_best_fit(v);
      if (target != datacenter::kNoHost) dc_.migrate(v, target);
    }
    ++i;
  }
}

void SchedulerDriver::evacuate_quarantined() {
  // Degraded-mode scheduling: live-migrate residents off quarantined hosts
  // as capacity allows. Unlike a drain the host is not powered off here —
  // the cooldown decides when it may serve again (the controller may still
  // shed it once idle).
  if (dc_.quarantined_on_count() == 0) return;
  for (datacenter::HostId h = 0; h < dc_.num_hosts(); ++h) {
    const auto& host = dc_.host(h);
    if (!host.quarantined || host.state != datacenter::HostState::kOn) {
      continue;
    }
    const std::vector<VmId> residents = host.residents;  // copy: mutation
    for (VmId v : residents) {
      if (dc_.vm(v).state != VmState::kRunning) continue;
      if (in_backoff(v)) continue;
      const datacenter::HostId target = policies_best_fit(v);
      if (target != datacenter::kNoHost) dc_.migrate(v, target);
    }
  }
}

datacenter::HostId SchedulerDriver::policies_best_fit(datacenter::VmId v) {
  datacenter::HostId best = datacenter::kNoHost;
  double best_occ = -1;
  for (datacenter::HostId h = 0; h < dc_.num_hosts(); ++h) {
    if (h == dc_.vm(v).host) continue;
    if (!dc_.fits(h, v)) continue;
    const double occ = dc_.occupation_if(h, v);
    if (occ > best_occ) {
      best_occ = occ;
      best = h;
    }
  }
  return best;
}

void SchedulerDriver::sla_scan() {
  bool at_risk_found = false;
  for (VmId v : dc_.active_vms()) {
    const auto& vm = dc_.vm(v);
    if (vm.state != VmState::kRunning) continue;
    const double elapsed = sim_.now() - vm.job.submit;
    const double rate = vm.progress_rate > 0 ? vm.progress_rate : 1.0;
    const double projected_exec = elapsed + vm.remaining_work_s() / rate;
    if (projected_exec <= vm.job.deadline_seconds()) continue;

    at_risk_found = true;
    ++dc_.recorder().counts.sla_alarms;
    if (auto* tr = obs::tracer(dc_.recorder())) {
      tr->emit(sim_.now(), obs::EventKind::kSlaAlarm).vm = v;
    }
    if (config_.dynamic_sla_boost && !boosted_[v]) {
      // Give the VM the priority it needs to catch up (III-A.5): a higher
      // credit weight pulls its share toward its nominal demand on
      // contended hosts; the PSLA term reconsiders its placement.
      dc_.boost_weight(v, 4.0 * config_.boost_factor);
      boosted_[v] = true;
    }
  }
  if (at_risk_found && config_.sla_alarms) round();
}

}  // namespace easched::sched
