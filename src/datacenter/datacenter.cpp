#include "datacenter/datacenter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "datacenter/op_lifecycle.hpp"
#include "datacenter/xen_scheduler.hpp"
#include "faults/fault_injector.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "support/contracts.hpp"
#include "validate/validate.hpp"
#include "support/distributions.hpp"
#include "workload/satisfaction.hpp"

namespace easched::datacenter {

using obs::EventKind;

namespace {
constexpr double kEps = 1e-9;
/// Slack tolerated when asserting a finish event hit zero remaining work.
constexpr double kFinishSlack = 1e-3;
/// dom0 CPU consumed while creating a VM / per migration leg.
constexpr double kCreationOverheadCpuPct = 100;
constexpr double kMigrationOverheadCpuPct = 60;

/// Records an operation's `kind` event spanning [began, now] (unless it is
/// kUntraced) on host `h`, scoped to `v` and the migration source `src`
/// when they are set.
obs::TraceEvent* record_op(metrics::Recorder& rec, EventKind kind,
                           sim::SimTime began, sim::SimTime now, HostId h,
                           VmId v, HostId src = kNoHost) {
  if (kind == kUntraced) return nullptr;
  obs::TraceEvent* e = obs::record_span(rec, began, now, kind);
  if (e == nullptr) return nullptr;
  if (v != kNoVm) e->vm = v;
  e->host = h;
  if (src != kNoHost) e->host2 = src;
  return e;
}
}  // namespace

Datacenter::Datacenter(sim::Simulator& simulator, DatacenterConfig config,
                       metrics::Recorder& recorder)
    : sim_(simulator),
      config_(std::move(config)),
      recorder_(recorder),
      rng_(config_.seed),
      failure_model_(config_.mean_repair_s) {
  EA_EXPECTS(!config_.hosts.empty());
  EA_EXPECTS(recorder_.watts.size() == config_.hosts.size());
  hosts_.resize(config_.hosts.size());
  failure_events_.assign(config_.hosts.size(), sim::kNoEvent);
  fleet_dirty_flag_.assign(config_.hosts.size(), 0);
  node_class_.assign(config_.hosts.size(), 0);
  node_dirty_flag_.assign(config_.hosts.size(), 0);
  const std::size_t on_count =
      std::min(config_.initially_on, config_.hosts.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i].id = static_cast<HostId>(i);
    hosts_[i].spec = config_.hosts[i];
    hosts_[i].state = i < on_count ? HostState::kOn : HostState::kOff;
    update_power(hosts_[i]);
    if (config_.inject_failures && hosts_[i].state == HostState::kOn) {
      schedule_failure(hosts_[i].id);
    }
    node_dirty_flag_[i] = 1;
    node_dirty_.push_back(hosts_[i].id);
  }
  update_node_counters();

  if (config_.checkpoint.enabled) {
    // Periodic scan; work-based due check in maybe_checkpoint().
    sim_.every(std::max(config_.checkpoint.period_s / 2.0, 1.0), [this] {
      for (auto& v : vms_) {
        if (v.state == VmState::kRunning) maybe_checkpoint(v);
      }
    });
  }
}

const Host& Datacenter::host(HostId h) const {
  EA_EXPECTS(h < hosts_.size());
  return hosts_[h];
}

Host& Datacenter::host_mut(HostId h) {
  EA_EXPECTS(h < hosts_.size());
  return hosts_[h];
}

const Vm& Datacenter::vm(VmId v) const {
  EA_EXPECTS(v < vms_.size());
  return vms_[v];
}

Vm& Datacenter::vm_mut(VmId v) {
  EA_EXPECTS(v < vms_.size());
  return vms_[v];
}

void Datacenter::settle_node_counts() const {
  const auto bit = [](bool set, NodeClass c) { return set ? 1 << c : 0; };
  for (const HostId h : node_dirty_) {
    node_dirty_flag_[h] = 0;
    const Host& host = hosts_[h];
    const unsigned char was = node_class_[h];
    const auto now = static_cast<unsigned char>(
        bit(host.is_online(), kOnline) | bit(host.is_working(), kWorking) |
        bit(host.state == HostState::kBooting, kBooting) |
        bit(host.quarantined && host.state == HostState::kOn,
            kQuarantinedOn));
    if (now == was) continue;
    node_class_[h] = now;
    for (int c = 0; c < kNumNodeClasses; ++c) {
      node_counts_[c] += ((now >> c) & 1) - ((was >> c) & 1);
    }
  }
  node_dirty_.clear();
}

int Datacenter::online_count() const {
  settle_node_counts();
  return node_counts_[kOnline];
}

int Datacenter::working_count() const {
  settle_node_counts();
  return node_counts_[kWorking];
}

int Datacenter::booting_count() const {
  settle_node_counts();
  return node_counts_[kBooting];
}

int Datacenter::quarantined_on_count() const {
  settle_node_counts();
  return node_counts_[kQuarantinedOn];
}

double Datacenter::reserved_cpu_pct(HostId h) const {
  const Host& host = hosts_[h];
  double cpu = 0;
  for (VmId v : host.residents) cpu += vms_[v].job.cpu_pct;
  return cpu;
}

double Datacenter::reserved_mem_mb(HostId h) const {
  const Host& host = hosts_[h];
  double mem = 0;
  for (VmId v : host.residents) mem += vms_[v].job.mem_mb;
  // Outgoing migrations keep their memory pinned until the transfer ends.
  for (const auto& op : host.ops) {
    if (op.kind == Operation::Kind::kMigrateOut) mem += vms_[op.vm].job.mem_mb;
  }
  return mem;
}

double Datacenter::occupation(HostId h) const {
  const Host& host = hosts_[h];
  return std::max(reserved_cpu_pct(h) / host.spec.cpu_capacity_pct,
                  reserved_mem_mb(h) / host.spec.mem_mb);
}

double Datacenter::occupation_if(HostId h, VmId v) const {
  const Host& host = hosts_[h];
  const Vm& m = vms_[v];
  double cpu = reserved_cpu_pct(h);
  double mem = reserved_mem_mb(h);
  if (m.host != h) {
    cpu += m.job.cpu_pct;
    mem += m.job.mem_mb;
  }
  return std::max(cpu / host.spec.cpu_capacity_pct, mem / host.spec.mem_mb);
}

bool Datacenter::hw_sw_ok(HostId h, VmId v) const {
  const Host& host = hosts_[h];
  const workload::Job& job = vms_[v].job;
  if (host.spec.arch != job.arch) return false;
  return (host.spec.software & job.software) == job.software;
}

bool Datacenter::placeable(HostId h) const {
  if (!hosts_[h].is_placeable()) return false;
  // may_veto_placement() keeps this per-cell hot path to an inline flag
  // test while every breaker is healthy.
  if (auto* rc = resilience::controller(recorder_)) {
    if (rc->may_veto_placement() && !rc->allows_placement(h, sim_.now())) {
      return false;
    }
  }
  return true;
}

bool Datacenter::fits(HostId h, VmId v) const {
  if (!placeable(h)) return false;
  if (!hw_sw_ok(h, v)) return false;
  return occupation_if(h, v) <= 1.0 + kEps;
}

bool Datacenter::fits_memory(HostId h, VmId v) const {
  const Host& host = hosts_[h];
  if (!placeable(h)) return false;
  if (!hw_sw_ok(h, v)) return false;
  const Vm& m = vms_[v];
  double mem = reserved_mem_mb(h);
  if (m.host != h) mem += m.job.mem_mb;
  return mem <= host.spec.mem_mb + kEps;
}

std::vector<VmId> Datacenter::active_vms() const {
  std::vector<VmId> out;
  out.reserve(vms_.size());
  for (const auto& v : vms_) {
    if (v.is_active()) out.push_back(v.id);
  }
  return out;
}

VmId Datacenter::admit_job(const workload::Job& job) {
  Vm v;
  v.id = static_cast<VmId>(vms_.size());
  v.job = job;
  v.state = VmState::kQueued;
  v.last_progress_update = sim_.now();
  if (auto* el = obs::ledger(recorder_)) {
    el->note_vm(v.id, job.cpu_pct);
  }
  vms_.push_back(std::move(v));
  return vms_.back().id;
}

double Datacenter::draw_duration(double mean_s) {
  return support::truncated_normal(
      rng_, mean_s, mean_s * config_.duration_sigma_ratio, 1.0);
}

void Datacenter::integrate_progress(Vm& v) {
  const sim::SimTime t = sim_.now();
  if (v.state == VmState::kRunning && v.progress_rate > 0) {
    v.work_done_s += v.progress_rate * (t - v.last_progress_update);
    v.work_done_s = std::min(v.work_done_s, v.job.dedicated_seconds);
  }
  v.last_progress_update = t;
}

void Datacenter::reschedule_finish(Vm& v) {
  if (v.state != VmState::kRunning || v.progress_rate <= 0) {
    sim_.cancel(v.finish_event);
    v.finish_event = sim::kNoEvent;
    return;
  }
  const sim::SimTime posted = v.finish_at;
  v.finish_at = sim_.now() + v.remaining_work_s() / v.progress_rate;
  const VmId id = v.id;
  v.finish_event = sim_.repost(v.finish_event, posted, v.finish_at,
                               [this, id] { finish_vm(id); });
}

void Datacenter::reallocate_io(HostId h) {
  Host& host = hosts_[h];
  const sim::SimTime t = sim_.now();
  mark_dirty(h);  // operation set / progress schedule changes

  // 1. Integrate progress of the active operations at their old rates.
  // A hung operation holds its channel slot (a wedged transfer still
  // occupies dom0) but accrues no progress and completes only through its
  // deadline abort.
  int active = 0;
  for (auto& op : host.ops) {
    if (!op.io_active()) continue;
    if (!op.hung) {
      op.done_s += op.rate * (t - op.last_update);
      op.done_s = std::min(op.done_s, op.work_s);
    }
    op.last_update = t;
    ++active;
  }
  if (active == 0) return;

  // 2. Equal shares of the dom0 I/O channel, capped at full speed.
  const double rate =
      std::min(1.0, host.spec.dom0_io_channels / active);

  // 3. Reschedule every active operation's completion.
  for (auto& op : host.ops) {
    if (!op.io_active()) continue;
    if (op.hung) {
      op.rate = 0;
      continue;  // `ends` stays at the abort deadline set when armed
    }
    op.rate = rate;
    const sim::SimTime posted = op.ends;
    op.ends = t + op.remaining_s() / rate;
    const Operation::Kind kind = op.kind;
    const VmId v = op.vm;
    op.event = sim_.repost(op.event, posted, op.ends, [this, h, kind, v] {
      end_op(h, kind, v, /*deadline=*/false);
    });
  }
}

void Datacenter::reallocate(HostId h) {
  Host& host = hosts_[h];
  // Every resident/reservation/demand change funnels through here, so one
  // mark covers the bulk of the fleet dirty protocol.
  mark_dirty(h);

  // 1. Integrate progress of everything currently running here.
  for (VmId r : host.residents) integrate_progress(vms_[r]);

  // 2. Compute the new shares for the running residents. The scratch
  // vectors live on the Datacenter (reallocate never re-enters itself), so
  // the hottest event-kernel path stops allocating.
  std::vector<CpuDemand>& demands = xen_demands_;
  std::vector<VmId>& running = xen_running_;
  demands.clear();
  running.clear();
  demands.reserve(host.residents.size());
  for (VmId r : host.residents) {
    const Vm& rv = vms_[r];
    if (rv.state != VmState::kRunning) continue;
    demands.push_back({rv.job.cpu_pct,
                       static_cast<double>(rv.job.weight), 0.0});
    running.push_back(r);
  }
  allocate_cpu(host.spec.cpu_capacity_pct, demands, host.mgmt_demand_pct(),
               xen_scratch_, xen_alloc_);
  const XenAllocation& alloc = xen_alloc_;
  double guest_demand = 0;
  for (const auto& d : demands) guest_demand += d.demand_pct;
  recorder_.max_oversubscription =
      std::max(recorder_.max_oversubscription,
               guest_demand / host.spec.cpu_capacity_pct);
  const double eff =
      1.0 / (1.0 + config_.contention_penalty * (alloc.oversubscription - 1.0));

  // 3. Update rates and projected finish events.
  for (std::size_t i = 0; i < running.size(); ++i) {
    Vm& rv = vms_[running[i]];
    const double demand = std::max(rv.job.cpu_pct, kEps);
    rv.alloc_cpu_pct = alloc.vm_alloc_pct[i];
    rv.progress_rate = alloc.vm_alloc_pct[i] / demand * eff;
    reschedule_finish(rv);
  }

  // 4. Re-derive power from the new total CPU usage.
  host.used_cpu_pct = host.state == HostState::kOn ? alloc.used_pct : 0.0;
  update_power(host);
}

void Datacenter::update_power(Host& h) {
  double watts = 0;
  double cpu = 0;
  switch (h.state) {
    case HostState::kOn:
      watts = h.spec.power.watts_on(h.used_cpu_pct, h.spec.cpu_capacity_pct);
      cpu = h.used_cpu_pct;
      break;
    case HostState::kBooting:
    case HostState::kShuttingDown:
      watts = h.spec.power.watts_boot();
      break;
    case HostState::kOff:
    case HostState::kFailed:
      watts = h.spec.power.watts_off();
      break;
  }
  recorder_.watts.set(sim_.now(), h.id, watts);
  recorder_.cpu_pct.set(sim_.now(), h.id, cpu);

  if (auto* el = obs::ledger(recorder_)) {
    // Hand the ledger the same wattage, decomposed by state so it can
    // bucket joules and split the load share across the running residents.
    obs::EnergySample sample;
    switch (h.state) {
      case HostState::kOn: {
        sample.idle_w = std::min(watts, h.spec.power.watts_idle());
        sample.load_w = watts - sample.idle_w;
        sample.used_cpu_pct = h.used_cpu_pct;
        sample.shares.reserve(h.residents.size());
        for (VmId r : h.residents) {
          const Vm& rv = vms_[r];
          if (rv.state != VmState::kRunning || rv.alloc_cpu_pct <= 0) {
            continue;
          }
          sample.shares.push_back({rv.id, rv.alloc_cpu_pct});
        }
        break;
      }
      case HostState::kBooting:
      case HostState::kShuttingDown:
        sample.boot_w = watts;
        break;
      case HostState::kOff:
      case HostState::kFailed:
        sample.off_w = watts;
        break;
    }
    el->set_host_power(sim_.now(), static_cast<std::size_t>(h.id),
                       std::move(sample));
  }
}

void Datacenter::update_node_counters() {
  recorder_.working.set(sim_.now(), working_count());
  recorder_.online.set(sim_.now(), online_count());
}

void Datacenter::remove_resident(Host& h, VmId v) {
  const auto it = std::find(h.residents.begin(), h.residents.end(), v);
  EA_ASSERT(it != h.residents.end());
  h.residents.erase(it);
}

void Datacenter::remove_op(Host& h, Operation::Kind kind, VmId v) {
  const auto it =
      std::find_if(h.ops.begin(), h.ops.end(), [&](const Operation& op) {
        return op.kind == kind && op.vm == v;
      });
  EA_ASSERT(it != h.ops.end());
  sim_.cancel(it->event);
  sim_.cancel(it->deadline_event);
  h.ops.erase(it);
}

void Datacenter::place(VmId v, HostId h) {
  Vm& m = vm_mut(v);
  Host& host = host_mut(h);
  EA_EXPECTS(m.state == VmState::kQueued);
  EA_EXPECTS(host.state == HostState::kOn);
  EA_EXPECTS(fits_memory(h, v));

  m.state = VmState::kCreating;
  m.host = h;
  host.residents.push_back(v);
  start_op(op_row(faults::FaultOp::kCreate), v, h, kCreationOverheadCpuPct);
}

void Datacenter::migrate(VmId v, HostId to) {
  Vm& m = vm_mut(v);
  Host& dst = host_mut(to);
  EA_EXPECTS(m.state == VmState::kRunning);
  EA_EXPECTS(dst.state == HostState::kOn);
  EA_EXPECTS(m.host != to);
  EA_EXPECTS(fits_memory(to, v));
  const HostId from = m.host;

  // Freeze execution on the source for the duration of the transfer.
  integrate_progress(m);
  m.progress_rate = 0;
  sim_.cancel(m.finish_event);
  m.finish_event = sim::kNoEvent;
  remove_resident(host_mut(from), v);

  m.state = VmState::kMigrating;
  m.migration_source = from;
  m.host = to;
  ++m.migrations;
  dst.residents.push_back(v);
  start_op(op_row(faults::FaultOp::kMigrate), v, to, kMigrationOverheadCpuPct,
           from);
}

void Datacenter::finish_vm(VmId v) {
  Vm& m = vm_mut(v);
  EA_ASSERT(m.state == VmState::kRunning);
  integrate_progress(m);
  EA_ASSERT(m.remaining_work_s() <= kFinishSlack);
  m.work_done_s = m.job.dedicated_seconds;
  m.state = VmState::kFinished;
  m.finished_at = sim_.now();
  m.finish_event = sim::kNoEvent;
  m.progress_rate = 0;

  const double exec = m.finished_at - m.job.submit;
  metrics::JobRecord rec;
  rec.vm = v;
  rec.submit = m.job.submit;
  rec.finish = m.finished_at;
  rec.dedicated_seconds = m.job.dedicated_seconds;
  rec.deadline_seconds = m.job.deadline_seconds();
  rec.satisfaction = workload::satisfaction(exec, rec.deadline_seconds);
  rec.delay_pct = workload::delay_pct(exec, rec.dedicated_seconds);
  rec.cpu_pct = m.job.cpu_pct;
  recorder_.jobs.add(rec);
  if (auto* e = obs::record(recorder_, sim_.now(), EventKind::kJobFinished)) {
    e->vm = v;
    e->host = m.host;
    e->arg("satisfaction", rec.satisfaction).arg("delay_pct", rec.delay_pct);
  }

  const HostId h = m.host;
  remove_resident(host_mut(h), v);
  m.host = kNoHost;
  reallocate(h);
  update_node_counters();
  if (on_vm_finished) on_vm_finished(v);
}

void Datacenter::maybe_checkpoint(Vm& v) {
  if (!config_.checkpoint.due(v.work_done_s, v.work_checkpointed_s)) {
    // Integrate first so the due check sees current progress.
    integrate_progress(v);
    if (!config_.checkpoint.due(v.work_done_s, v.work_checkpointed_s)) return;
  }
  // Skip when a checkpoint of this VM is already in flight.
  for (const auto& op : hosts_[v.host].ops) {
    if (op.kind == Operation::Kind::kCheckpoint && op.vm == v.id) return;
  }
  start_op(op_row(faults::FaultOp::kCheckpoint), v.id, v.host,
           config_.checkpoint.overhead_cpu_pct);
}

void Datacenter::set_maintenance(HostId h, bool on) {
  host_mut(h).maintenance = on;
  mark_dirty(h);  // placeability flip
}

void Datacenter::power_on(HostId h) {
  Host& host = host_mut(h);
  EA_EXPECTS(host.state == HostState::kOff);
  set_host_state(host, HostState::kBooting);
  update_power(host);
  start_transition(op_row(faults::FaultOp::kPowerOn), h);
  update_node_counters();
}

void Datacenter::power_off(HostId h) {
  Host& host = host_mut(h);
  EA_EXPECTS(host.is_idle_on());
  cancel_failure(h);
  set_host_state(host, HostState::kShuttingDown);
  update_power(host);
  start_transition(op_row(faults::FaultOp::kPowerOff), h);
  update_node_counters();
}

void Datacenter::boost_weight(VmId v, double factor) {
  EA_EXPECTS(factor >= 1.0);
  Vm& m = vm_mut(v);
  const double boosted = std::min(m.job.weight * factor, 65536.0);
  m.job.weight = static_cast<std::uint32_t>(boosted);
  if (m.state == VmState::kRunning) reallocate(m.host);
}

void Datacenter::schedule_failure(HostId h) {
  const Host& host = hosts_[h];
  const double ttf =
      failure_model_.draw_time_to_failure(rng_, host.spec.reliability);
  if (!std::isfinite(ttf)) return;
  sim_.cancel(failure_events_[h]);
  failure_events_[h] = sim_.after(ttf, [this, h] { fail_host(h); });
}

void Datacenter::cancel_failure(HostId h) {
  sim_.cancel(failure_events_[h]);
  failure_events_[h] = sim::kNoEvent;
}

void Datacenter::requeue_lost(Vm& m) {
  if (m.work_checkpointed_s > 0) {
    ++recorder_.counts.checkpoint_recoveries;
  } else {
    ++recorder_.counts.recreates;
  }
  m.work_done_s = m.work_checkpointed_s;
  m.state = VmState::kQueued;
  m.host = kNoHost;
  m.migration_source = kNoHost;
  m.progress_rate = 0;
  ++m.restarts;
}

void Datacenter::fail_host(HostId h) {
  Host& host = host_mut(h);
  EA_ASSERT(host.state == HostState::kOn);
  failure_events_[h] = sim::kNoEvent;
  sim_.cancel(host.transition_event);
  host.transition_event = sim::kNoEvent;

  // Requeue every VM assigned here, restoring checkpointed progress. A VM
  // migrating *into* this host also loses its transfer; drop the matching
  // migrate-out leg on the (still alive) source.
  std::vector<VmId> lost = host.residents;
  for (VmId v : lost) {
    Vm& m = vm_mut(v);
    sim_.cancel(m.finish_event);
    m.finish_event = sim::kNoEvent;
    if (m.state == VmState::kMigrating && m.migration_source != kNoHost) {
      remove_op(host_mut(m.migration_source), Operation::Kind::kMigrateOut, v);
      reallocate(m.migration_source);
    }
    requeue_lost(m);
  }
  host.residents.clear();

  // Abort in-flight operations. An outgoing migration whose source just
  // died kills the transfer: the VM (resident at the destination) is
  // requeued and the destination's migrate-in leg dropped.
  std::vector<Operation> ops = std::move(host.ops);
  host.ops.clear();
  for (const auto& op : ops) {
    sim_.cancel(op.event);
    sim_.cancel(op.deadline_event);
    if (op.kind == Operation::Kind::kMigrateOut) {
      Vm& m = vm_mut(op.vm);
      if (m.state == VmState::kMigrating) {
        const HostId dest = m.host;
        remove_op(host_mut(dest), Operation::Kind::kMigrateIn, op.vm);
        remove_resident(host_mut(dest), op.vm);
        requeue_lost(m);
        lost.push_back(op.vm);
        reallocate(dest);
      }
    }
  }

  set_host_state(host, HostState::kFailed);
  host.used_cpu_pct = 0;
  update_power(host);
  if (auto* e = obs::record(recorder_, sim_.now(), EventKind::kHostFailed)) {
    e->host = h;
    e->arg("lost", static_cast<double>(lost.size()));
  }
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_host_crashed(h, sim_.now());
  }
  note_host_fault(h);

  const double repair = failure_model_.draw_repair_time(rng_);
  host.transition_event = sim_.after(repair, [this, h] {
    Host& hh = host_mut(h);
    set_host_state(hh, HostState::kOff);
    hh.transition_event = sim::kNoEvent;
    update_power(hh);
    if (auto* e = obs::record(recorder_, sim_.now(),
                              EventKind::kHostRepaired)) {
      e->host = h;
    }
    if (auto* rc = resilience::controller(recorder_)) {
      rc->note_host_repaired(h, sim_.now());
    }
    update_node_counters();
    if (on_host_repaired) on_host_repaired(h);
  });

  update_node_counters();
  if (on_host_failed) on_host_failed(h, lost);
}

void Datacenter::inject_host_failure(HostId h) {
  if (hosts_[h].state != HostState::kOn) return;
  cancel_failure(h);
  fail_host(h);
}

void Datacenter::debug_add_resident(HostId h, VmId v) {
  host_mut(h).residents.push_back(v);
  mark_dirty(h);
}

void Datacenter::debug_force_place(VmId v, HostId h) {
  Vm& m = vm_mut(v);
  m.state = VmState::kRunning;
  m.host = h;
  host_mut(h).residents.push_back(v);
  mark_dirty(h);
}

void Datacenter::set_host_state(Host& h, HostState to) {
  if (auto* ck = validate::checker(recorder_)) {
    ck->on_host_transition(sim_.now(), h.id, h.state, to);
  }
  h.state = to;
  mark_dirty(h.id);
}

void Datacenter::debug_corrupt_node_counts(int delta) {
  settle_node_counts();
  node_counts_[kOnline] += delta;
}

void Datacenter::mark_dirty(HostId h) {
  if (fleet_dirty_flag_[h] == 0) {
    fleet_dirty_flag_[h] = 1;
    fleet_dirty_.push_back(h);
  }
  if (node_dirty_flag_[h] == 0) {
    node_dirty_flag_[h] = 1;
    node_dirty_.push_back(h);
  }
}

void Datacenter::drain_fleet_dirty(std::vector<HostId>& out) const {
  for (const HostId h : fleet_dirty_) {
    out.push_back(h);
    fleet_dirty_flag_[h] = 0;
  }
  fleet_dirty_.clear();
}

// ---- the operation lifecycle (op_lifecycle.hpp) ---------------------------

Datacenter::Injected Datacenter::inject(faults::FaultOp fop, HostId h, VmId v,
                                        double duration_s) {
  Injected in{duration_s};
  if (config_.fault_injector == nullptr) return in;
  const faults::FaultOutcome out = config_.fault_injector->decide(fop, h);
  if (!out.injected()) return in;
  if (auto* e = obs::record(recorder_, sim_.now(), EventKind::kFaultInjected)) {
    if (v != kNoVm) e->vm = v;
    e->host = h;
    // `<op>.<outcome>`, the fault plan's key grammar (`migrate.fail`).
    e->label = std::string(faults::to_string(fop)) + '.' +
               faults::to_string(out.kind);
    if (out.kind == faults::FaultOutcome::Kind::kFail) {
      e->arg("fail_fraction", out.fail_fraction);
    } else if (out.kind == faults::FaultOutcome::Kind::kSlow) {
      e->arg("slow_factor", out.slow_factor);
    }
  }
  switch (out.kind) {
    case faults::FaultOutcome::Kind::kNone:
      break;
    case faults::FaultOutcome::Kind::kFail:
      // The operation runs part of its course and then dies (a migration
      // failing at switchover, a creation flunking its health check, a
      // kernel panic mid-boot) and takes the failure path at its end.
      in.duration_s = std::max(1.0, duration_s * out.fail_fraction);
      in.fails = true;
      break;
    case faults::FaultOutcome::Kind::kHang:
      in.hangs = true;
      break;
    case faults::FaultOutcome::Kind::kSlow:
      in.duration_s *= out.slow_factor;
      break;
  }
  return in;
}

void Datacenter::begin_op(const OpRow& row, HostId h, VmId v, HostId src) {
  if (auto* rc = resilience::controller(recorder_);
      rc != nullptr && row.breaker.start) {
    rc->note_op_start(h, sim_.now());
  }
  record_op(recorder_, row.start, sim_.now(), sim_.now(), h, v, src);
}

void Datacenter::start_op(const OpRow& row, VmId v, HostId h,
                          double overhead_cpu_pct, HostId src) {
  Host& host = hosts_[h];
  const double mean_s = row.mean_s != nullptr ? host.spec.*row.mean_s
                                              : config_.checkpoint.duration_s;
  Operation op;
  op.kind = *row.leg;
  op.vm = v;
  op.overhead_cpu_pct = overhead_cpu_pct;
  op.started = sim_.now();
  op.last_update = sim_.now();
  op.work_s = row.drawn ? draw_duration(mean_s) : mean_s;
  if (src != kNoHost) {
    // The passive out-leg burns dom0 CPU on the source until the transfer
    // ends (paced by the receiver in reality). Injection is attributed to
    // the destination: a lemon destination makes migrations into it flaky.
    Operation out = op;
    out.kind = Operation::Kind::kMigrateOut;
    out.ends = sim_.now() + op.work_s;
    hosts_[src].ops.push_back(out);
  }
  const Injected in = inject(row.op, h, v, op.work_s);
  op.work_s = in.duration_s;
  op.injected_fail = in.fails;
  op.hung = in.hangs;
  if (config_.fault_injector != nullptr) {
    // Abort-at-timeout watchdog.
    const double deadline_s =
        config_.fault_injector->plan().op_timeout_factor * mean_s;
    const Operation::Kind leg = op.kind;
    op.deadline_event = sim_.after(deadline_s, [this, h, leg, v] {
      end_op(h, leg, v, /*deadline=*/true);
    });
    // A hung operation never completes; its projected end — which feeds
    // the Pconc concurrency penalty — is the abort deadline.
    if (op.hung) op.ends = sim_.now() + deadline_s;
  }
  host.ops.push_back(op);
  begin_op(row, h, v, src);
  reallocate_io(h);
  if (src != kNoHost) reallocate(src);
  reallocate(h);
  update_node_counters();
}

void Datacenter::end_op(HostId h, Operation::Kind leg, VmId v,
                        bool deadline) {
  std::vector<Operation>& ops = hosts_[h].ops;
  const auto it =
      std::find_if(ops.begin(), ops.end(), [&](const Operation& op) {
        return op.kind == leg && op.vm == v;
      });
  EA_ASSERT(it != ops.end());
  const sim::SimTime started = it->started;
  const bool fails = deadline || it->injected_fail;
  sim_.cancel(it->event);
  sim_.cancel(it->deadline_event);
  ops.erase(it);
  if (fails) {
    fail_op(op_row(leg), h, v, /*timed_out=*/deadline);
  } else {
    finish_op(op_row(leg), h, v, started);
  }
}

void Datacenter::start_transition(const OpRow& row, HostId h) {
  begin_op(row, h, kNoVm);
  const double mean_s = hosts_[h].spec.*row.mean_s;
  Injected in = inject(row.op, h, kNoVm, mean_s);
  bool timed_out = false;
  if (config_.fault_injector != nullptr) {
    // The watchdog: a transition that hung, or would end at or after its
    // deadline, is abandoned there as a timeout.
    const double deadline_s =
        config_.fault_injector->plan().op_timeout_factor * mean_s;
    if (in.hangs || in.duration_s >= deadline_s) {
      in.duration_s = deadline_s;
      timed_out = true;
    }
  }
  const bool fails = in.fails || timed_out;
  const sim::SimTime began = sim_.now();
  hosts_[h].transition_event = sim_.after(
      in.duration_s, [this, &row, h, fails, timed_out, began] {
        hosts_[h].transition_event = sim::kNoEvent;
        if (fails) {
          fail_op(row, h, kNoVm, timed_out);
        } else {
          finish_op(row, h, kNoVm, began);
        }
      });
}

void Datacenter::finish_op(const OpRow& row, HostId h, VmId v,
                           sim::SimTime started) {
  const HostId src = v != kNoVm ? vms_[v].migration_source : kNoHost;
  record_op(recorder_, row.done, started, sim_.now(), h, v, src);
  Host& host = hosts_[h];
  switch (row.op) {
    case faults::FaultOp::kCreate:
    case faults::FaultOp::kMigrate: {
      Vm& m = vms_[v];
      EA_ASSERT(m.host == h && m.state == (src != kNoHost
                                               ? VmState::kMigrating
                                               : VmState::kCreating));
      if (src != kNoHost) {
        remove_op(hosts_[src], Operation::Kind::kMigrateOut, v);
      }
      m.state = VmState::kRunning;
      m.migration_source = kNoHost;
      m.last_progress_update = sim_.now();
      reallocate_io(h);
      if (src != kNoHost) reallocate(src);
      reallocate(h);
      break;
    }
    case faults::FaultOp::kCheckpoint: {
      Vm& m = vms_[v];
      if (m.state == VmState::kRunning && m.host == h) {
        integrate_progress(m);
        m.work_checkpointed_s = m.work_done_s;
        ++recorder_.counts.checkpoints;
      }
      reallocate_io(h);
      reallocate(h);
      break;
    }
    case faults::FaultOp::kPowerOn:
      set_host_state(host, HostState::kOn);
      update_power(host);
      if (config_.inject_failures) schedule_failure(h);
      break;
    case faults::FaultOp::kPowerOff:
      set_host_state(host, HostState::kOff);
      update_power(host);
      break;
  }
  if (auto* rc = resilience::controller(recorder_);
      rc != nullptr && row.breaker.success) {
    rc->note_op_success(h, sim_.now());
  }
  update_node_counters();
  if (row.on_done != nullptr) {
    if (const auto& on_done = this->*row.on_done) on_done(v != kNoVm ? v : h);
  }
}

void Datacenter::fail_op(const OpRow& row, HostId h, VmId v, bool timed_out) {
  if (timed_out) ++recorder_.counts.op_timeouts;
  if (auto* e = record_op(recorder_, row.failed, sim_.now(), sim_.now(), h, v);
      e != nullptr && row.failed == EventKind::kOpFailed) {
    e->label = faults::to_string(row.op);
    e->arg("timeout", timed_out ? 1.0 : 0.0);
  }
  Host& host = hosts_[h];
  switch (row.op) {
    case faults::FaultOp::kCreate: {
      Vm& m = vms_[v];
      EA_ASSERT(m.state == VmState::kCreating && m.host == h);
      remove_resident(host, v);
      m.state = VmState::kQueued;
      m.host = kNoHost;
      m.progress_rate = 0;
      ++m.restarts;
      reallocate_io(h);
      reallocate(h);
      break;
    }
    case faults::FaultOp::kMigrate: {
      // The source still pins the VM's memory (via its migrate-out leg), so
      // rollback is not a placement decision and needs no fits() check: the
      // VM simply resumes where it was.
      Vm& m = vms_[v];
      const HostId src = m.migration_source;
      EA_ASSERT(m.state == VmState::kMigrating && src != kNoHost);
      remove_op(hosts_[src], Operation::Kind::kMigrateOut, v);
      remove_resident(host, v);
      hosts_[src].residents.push_back(v);
      m.host = src;
      m.migration_source = kNoHost;
      m.state = VmState::kRunning;
      m.last_progress_update = sim_.now();
      record_op(recorder_, EventKind::kMigrateRollback, sim_.now(), sim_.now(),
                h, v, src);
      reallocate_io(h);
      reallocate_io(src);
      reallocate(h);
      reallocate(src);
      break;
    }
    case faults::FaultOp::kCheckpoint:
      // No snapshot is recorded; the previous checkpoint (if any) stays.
      reallocate_io(h);
      reallocate(h);
      break;
    case faults::FaultOp::kPowerOn:
      EA_ASSERT(host.state == HostState::kBooting);
      set_host_state(host, HostState::kOff);
      host.used_cpu_pct = 0;
      update_power(host);
      break;
    case faults::FaultOp::kPowerOff:
      // The host is still drawing power and reports back online so the
      // power controller can fold it into future decisions.
      set_host_state(host, HostState::kOn);
      update_power(host);
      break;
  }
  if (auto* rc = resilience::controller(recorder_);
      rc != nullptr && row.breaker.failure) {
    rc->note_op_failure(h, sim_.now());
  }
  note_host_fault(h);
  if (row.op == faults::FaultOp::kPowerOff && config_.inject_failures) {
    schedule_failure(h);
  }
  update_node_counters();
  if (row.failed == EventKind::kOpFailed && on_operation_failed) {
    on_operation_failed(row.op, v, h, timed_out);
  }
  if (row.on_failed != nullptr) {
    if (const auto& on_failed = this->*row.on_failed) on_failed(h);
  }
}

void Datacenter::note_host_fault(HostId h) {
  const faults::QuarantinePolicy q =
      config_.fault_injector != nullptr
          ? config_.fault_injector->plan().quarantine
          : faults::QuarantinePolicy{};
  Host& host = host_mut(h);
  if (host.quarantined) return;
  const sim::SimTime now = sim_.now();
  if (now - host.fault_window_start >= q.window_s) {
    // Sliding-window approximation: restart the window at the first fault
    // after the previous window lapsed. The comparison is >=, not >: a
    // fault landing exactly one window after the window opened (e.g. a
    // cooldown expiring on a round boundary) belongs to a *fresh* window —
    // counting it against the stale one re-quarantines on stale faults.
    host.fault_window_start = now;
    host.fault_count = 0;
  }
  ++host.fault_count;
  if (host.fault_count < q.failure_budget) return;

  host.quarantined = true;
  mark_dirty(h);  // placeability flip
  if (auto* e = obs::record(recorder_, sim_.now(), EventKind::kQuarantine)) {
    e->host = h;
    e->arg("cooldown_s", q.cooldown_s);
  }
  sim_.cancel(host.unquarantine_event);
  host.unquarantine_event = sim_.after(q.cooldown_s, [this, h] {
    Host& hh = host_mut(h);
    hh.unquarantine_event = sim::kNoEvent;
    hh.quarantined = false;
    hh.fault_count = 0;
    hh.fault_window_start = sim_.now();
    mark_dirty(h);  // placeability flip
    if (auto* e = obs::record(recorder_, sim_.now(),
                              EventKind::kUnquarantine)) {
      e->host = h;
    }
    if (auto* rc = resilience::controller(recorder_)) {
      rc->note_host_unquarantined(h, sim_.now());
    }
    if (on_host_unquarantined) on_host_unquarantined(h);
  });
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_host_quarantined(h, sim_.now());
  }
  if (on_host_quarantined) on_host_quarantined(h);
}

}  // namespace easched::datacenter
