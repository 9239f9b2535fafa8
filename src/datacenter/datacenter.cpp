#include "datacenter/datacenter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "datacenter/xen_scheduler.hpp"
#include "faults/fault_injector.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "support/contracts.hpp"
#include "validate/validate.hpp"
#include "support/distributions.hpp"
#include "workload/satisfaction.hpp"

namespace easched::datacenter {

namespace {
constexpr double kEps = 1e-9;
/// Slack tolerated when asserting a finish event hit zero remaining work.
constexpr double kFinishSlack = 1e-3;

const char* outcome_name(faults::FaultOutcome::Kind k) {
  switch (k) {
    case faults::FaultOutcome::Kind::kNone: return "none";
    case faults::FaultOutcome::Kind::kFail: return "fail";
    case faults::FaultOutcome::Kind::kHang: return "hang";
    case faults::FaultOutcome::Kind::kSlow: return "slow";
  }
  return "?";
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

int Datacenter::offline_available_count() const {
  int n = 0;
  for (const auto& h : hosts_) n += h.state == HostState::kOff ? 1 : 0;
  return n;
}

double Datacenter::reserved_cpu_pct(HostId h) const {
  const Host& host = hosts_[h];
  double cpu = 0;
  for (VmId v : host.residents) cpu += vms_[v].cpu_demand_pct;
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
    cpu += m.state == VmState::kRunning ? m.cpu_demand_pct : m.job.cpu_pct;
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

double Datacenter::projected_rate(HostId h, VmId v) const {
  const Host& host = hosts_[h];
  const Vm& m = vms_[v];
  const double demand_v =
      m.state == VmState::kRunning ? m.cpu_demand_pct : m.job.cpu_pct;
  double total = host.mgmt_demand_pct();
  bool counted = false;
  for (VmId r : host.residents) {
    const Vm& rv = vms_[r];
    if (rv.state != VmState::kRunning) continue;
    total += rv.cpu_demand_pct;
    if (r == v) counted = true;
  }
  if (!counted) total += demand_v;
  if (total <= host.spec.cpu_capacity_pct || total <= 0) return 1.0;
  const double over = total / host.spec.cpu_capacity_pct;
  const double share = host.spec.cpu_capacity_pct / total;
  const double eff = 1.0 / (1.0 + config_.contention_penalty * (over - 1.0));
  return share * eff;
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
  v.cpu_demand_pct = job.cpu_pct;
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
  sim_.cancel(v.finish_event);
  v.finish_event = sim::kNoEvent;
  if (v.state != VmState::kRunning || v.progress_rate <= 0) return;
  const double remaining = v.remaining_work_s();
  const VmId id = v.id;
  v.finish_event =
      sim_.after(remaining / v.progress_rate, [this, id] { finish_vm(id); });
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
    sim_.cancel(op.event);
    const double eta = op.remaining_s() / rate;
    op.ends = t + eta;
    const Operation::Kind kind = op.kind;
    const VmId v = op.vm;
    op.event =
        sim_.after(eta, [this, h, kind, v] { complete_operation(h, kind, v); });
  }
}

void Datacenter::complete_operation(HostId h, Operation::Kind kind, VmId v) {
  // An operation with an injected failure runs its (shortened) course and
  // then takes the failure path — a migration that dies at switchover, a
  // creation that fails its health check.
  if (const Operation* op = find_op(hosts_[h], kind, v);
      op != nullptr && op->injected_fail) {
    fail_operation(h, kind, v, /*timed_out=*/false);
    return;
  }
  switch (kind) {
    case Operation::Kind::kCreate:
      complete_creation(h, v);
      break;
    case Operation::Kind::kMigrateIn:
      complete_migration(vm(v).migration_source, h, v);
      break;
    case Operation::Kind::kCheckpoint:
      complete_checkpoint(h, v);
      break;
    case Operation::Kind::kMigrateOut:
      EA_ASSERT(false);  // passive leg never schedules an event
      break;
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
    demands.push_back({rv.cpu_demand_pct,
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
    const double demand = std::max(rv.cpu_demand_pct, kEps);
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

Operation* Datacenter::find_op(Host& h, Operation::Kind kind, VmId v) {
  const auto it =
      std::find_if(h.ops.begin(), h.ops.end(), [&](const Operation& op) {
        return op.kind == kind && op.vm == v;
      });
  return it == h.ops.end() ? nullptr : &*it;
}

void Datacenter::place(VmId v, HostId h) {
  Vm& m = vm_mut(v);
  Host& host = host_mut(h);
  EA_EXPECTS(m.state == VmState::kQueued);
  EA_EXPECTS(host.state == HostState::kOn);
  EA_EXPECTS(fits_memory(h, v));

  m.state = VmState::kCreating;
  m.host = h;
  m.cpu_demand_pct = m.job.cpu_pct;
  host.residents.push_back(v);

  Operation op;
  op.kind = Operation::Kind::kCreate;
  op.vm = v;
  op.overhead_cpu_pct = config_.creation_overhead_cpu_pct;
  op.started = sim_.now();
  op.last_update = sim_.now();
  op.work_s = draw_duration(host.spec.creation_cost_s);
  apply_injection(op, faults::FaultOp::kCreate, h);
  host.ops.push_back(op);
  arm_op_deadline(h, host.spec.creation_cost_s);
  ++recorder_.counts.creations;
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_op_start(h, sim_.now());
  }
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kCreateStart);
    e.vm = v;
    e.host = h;
  }

  reallocate_io(h);
  reallocate(h);
  update_node_counters();
}

void Datacenter::complete_creation(HostId h, VmId v) {
  Vm& m = vm_mut(v);
  Host& host = host_mut(h);
  EA_ASSERT(m.state == VmState::kCreating && m.host == h);
  if (auto* tr = obs::tracer(recorder_)) {
    sim::SimTime started = sim_.now();
    if (const Operation* op = find_op(host, Operation::Kind::kCreate, v)) {
      started = op->started;
    }
    auto& e = tr->span(started, sim_.now(), obs::EventKind::kVmReady);
    e.vm = v;
    e.host = h;
  }
  // Do not cancel our own (already fired) event: remove_op cancels a
  // kNoEvent-safe handle because cancel() ignores fired events.
  remove_op(host, Operation::Kind::kCreate, v);
  m.state = VmState::kRunning;
  m.last_progress_update = sim_.now();
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_op_success(h, sim_.now());
  }
  reallocate_io(h);
  reallocate(h);
  update_node_counters();
  if (on_vm_ready) on_vm_ready(v);
}

void Datacenter::migrate(VmId v, HostId to) {
  Vm& m = vm_mut(v);
  Host& dst = host_mut(to);
  EA_EXPECTS(m.state == VmState::kRunning);
  EA_EXPECTS(dst.state == HostState::kOn);
  EA_EXPECTS(m.host != to);
  EA_EXPECTS(fits_memory(to, v));
  const HostId from = m.host;
  Host& src = host_mut(from);

  // Freeze execution on the source for the duration of the transfer.
  integrate_progress(m);
  m.progress_rate = 0;
  sim_.cancel(m.finish_event);
  m.finish_event = sim::kNoEvent;
  remove_resident(src, v);

  m.state = VmState::kMigrating;
  m.migration_source = from;
  m.host = to;
  dst.residents.push_back(v);

  const double duration = draw_duration(dst.spec.migration_cost_s);
  Operation out_op;
  out_op.kind = Operation::Kind::kMigrateOut;
  out_op.vm = v;
  out_op.overhead_cpu_pct = config_.migration_overhead_cpu_pct;
  out_op.started = sim_.now();
  out_op.last_update = sim_.now();
  out_op.work_s = duration;
  out_op.ends = sim_.now() + duration;  // paced by the receiver in reality
  src.ops.push_back(out_op);

  Operation in_op = out_op;
  in_op.kind = Operation::Kind::kMigrateIn;
  // Injection is attributed to the destination: it paces the transfer, so
  // a lemon destination makes migrations into it flaky. Only the active
  // (in) leg carries the flags; the passive out leg just burns dom0 CPU.
  apply_injection(in_op, faults::FaultOp::kMigrate, to);
  dst.ops.push_back(in_op);
  arm_op_deadline(to, dst.spec.migration_cost_s);

  ++recorder_.counts.migrations;
  ++m.migrations;
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_op_start(to, sim_.now());
  }
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kMigrateStart);
    e.vm = v;
    e.host = to;
    e.host2 = from;
  }

  reallocate_io(to);
  reallocate(from);
  reallocate(to);
  update_node_counters();
}

void Datacenter::complete_migration(HostId from, HostId to, VmId v) {
  Vm& m = vm_mut(v);
  EA_ASSERT(m.state == VmState::kMigrating && m.host == to &&
            m.migration_source == from);
  if (auto* tr = obs::tracer(recorder_)) {
    sim::SimTime started = sim_.now();
    if (const Operation* op =
            find_op(host_mut(to), Operation::Kind::kMigrateIn, v)) {
      started = op->started;
    }
    auto& e = tr->span(started, sim_.now(), obs::EventKind::kMigrateDone);
    e.vm = v;
    e.host = to;
    e.host2 = from;
  }
  remove_op(host_mut(from), Operation::Kind::kMigrateOut, v);
  remove_op(host_mut(to), Operation::Kind::kMigrateIn, v);
  m.state = VmState::kRunning;
  m.migration_source = kNoHost;
  m.last_progress_update = sim_.now();
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_op_success(to, sim_.now());
  }
  reallocate_io(to);
  reallocate(from);
  reallocate(to);
  update_node_counters();
  if (on_migration_done) on_migration_done(v);
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
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kJobFinished);
    e.vm = v;
    e.host = m.host;
    e.arg("satisfaction", rec.satisfaction).arg("delay_pct", rec.delay_pct);
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
  Host& host = host_mut(v.host);
  // Skip when a checkpoint of this VM is already in flight.
  for (const auto& op : host.ops) {
    if (op.kind == Operation::Kind::kCheckpoint && op.vm == v.id) return;
  }
  Operation op;
  op.kind = Operation::Kind::kCheckpoint;
  op.vm = v.id;
  op.overhead_cpu_pct = config_.checkpoint.overhead_cpu_pct;
  op.started = sim_.now();
  op.last_update = sim_.now();
  op.work_s = config_.checkpoint.duration_s;
  apply_injection(op, faults::FaultOp::kCheckpoint, v.host);
  host.ops.push_back(op);
  arm_op_deadline(v.host, config_.checkpoint.duration_s);
  reallocate_io(v.host);
  reallocate(v.host);
  update_node_counters();
}

void Datacenter::complete_checkpoint(HostId h, VmId v) {
  Vm& m = vm_mut(v);
  remove_op(host_mut(h), Operation::Kind::kCheckpoint, v);
  if (m.state == VmState::kRunning && m.host == h) {
    integrate_progress(m);
    m.work_checkpointed_s = m.work_done_s;
    ++recorder_.counts.checkpoints;
  }
  reallocate_io(h);
  reallocate(h);
  update_node_counters();
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
  ++recorder_.counts.turn_ons;
  const sim::SimTime boot_began = sim_.now();
  if (auto* tr = obs::tracer(recorder_)) {
    tr->emit(boot_began, obs::EventKind::kPowerOn).host = h;
  }

  double boot_s = host.spec.boot_time_s;
  bool boot_will_fail = false;
  bool boot_hangs = false;
  if (config_.fault_injector != nullptr) {
    const faults::FaultOutcome out =
        config_.fault_injector->decide(faults::FaultOp::kPowerOn, h, sim_.now());
    if (out.kind != faults::FaultOutcome::Kind::kNone) {
      if (auto* tr = obs::tracer(recorder_)) {
        auto& e = tr->emit(sim_.now(), obs::EventKind::kFaultInjected);
        e.host = h;
        e.label = outcome_name(out.kind);
      }
    }
    switch (out.kind) {
      case faults::FaultOutcome::Kind::kNone:
        break;
      case faults::FaultOutcome::Kind::kFail:
        // Boot runs part way and dies (kernel panic, POST failure).
        boot_s = std::max(1.0, boot_s * out.fail_fraction);
        boot_will_fail = true;
        break;
      case faults::FaultOutcome::Kind::kHang:
        boot_hangs = true;  // only the boot deadline ends this
        break;
      case faults::FaultOutcome::Kind::kSlow:
        boot_s *= out.slow_factor;
        break;
    }
    // Failed-to-start watchdog: a host not On by the deadline is declared
    // boot-failed and returned to Off.
    const double deadline_s =
        config_.fault_injector->plan().op_timeout_factor *
        host.spec.boot_time_s;
    host.boot_deadline_event =
        sim_.after(deadline_s, [this, h] { boot_failed(h); });
  }
  if (!boot_hangs) {
    host.transition_event =
        sim_.after(boot_s, [this, h, boot_will_fail, boot_began] {
      Host& hh = host_mut(h);
      hh.transition_event = sim::kNoEvent;
      if (boot_will_fail) {
        boot_failed(h);
        return;
      }
      sim_.cancel(hh.boot_deadline_event);
      hh.boot_deadline_event = sim::kNoEvent;
      set_host_state(hh, HostState::kOn);
      update_power(hh);
      if (auto* tr = obs::tracer(recorder_)) {
        tr->span(boot_began, sim_.now(), obs::EventKind::kHostOnline).host = h;
      }
      if (config_.inject_failures) schedule_failure(h);
      update_node_counters();
      if (on_host_online) on_host_online(h);
    });
  }
  update_node_counters();
}

void Datacenter::power_off(HostId h) {
  Host& host = host_mut(h);
  EA_EXPECTS(host.is_idle_on());
  cancel_failure(h);
  set_host_state(host, HostState::kShuttingDown);
  update_power(host);
  ++recorder_.counts.turn_offs;
  const sim::SimTime shutdown_began = sim_.now();
  if (auto* tr = obs::tracer(recorder_)) {
    tr->emit(shutdown_began, obs::EventKind::kPowerOff).host = h;
  }

  double shutdown_s = host.spec.shutdown_time_s;
  bool off_fails = false;
  if (config_.fault_injector != nullptr) {
    const faults::FaultOutcome out = config_.fault_injector->decide(
        faults::FaultOp::kPowerOff, h, sim_.now());
    if (out.kind != faults::FaultOutcome::Kind::kNone) {
      if (auto* tr = obs::tracer(recorder_)) {
        auto& e = tr->emit(sim_.now(), obs::EventKind::kFaultInjected);
        e.host = h;
        e.label = outcome_name(out.kind);
      }
    }
    switch (out.kind) {
      case faults::FaultOutcome::Kind::kNone:
        break;
      case faults::FaultOutcome::Kind::kFail:
        shutdown_s = std::max(1.0, shutdown_s * out.fail_fraction);
        off_fails = true;
        break;
      case faults::FaultOutcome::Kind::kHang:
        // A wedged shutdown lingers until the timeout, then is abandoned
        // with the host still up.
        off_fails = true;
        shutdown_s =
            config_.fault_injector->plan().op_timeout_factor * shutdown_s;
        break;
      case faults::FaultOutcome::Kind::kSlow:
        shutdown_s *= out.slow_factor;
        break;
    }
  }
  host.transition_event =
      sim_.after(shutdown_s, [this, h, off_fails, shutdown_began] {
    Host& hh = host_mut(h);
    hh.transition_event = sim::kNoEvent;
    if (off_fails) {
      // Shutdown failed: the host is still drawing power and reports back
      // online so the power controller can fold it into future decisions.
      set_host_state(hh, HostState::kOn);
      update_power(hh);
      ++recorder_.counts.op_failures;
      record_fault_event("power-off-failed host=%u",
                         static_cast<unsigned>(h));
      if (auto* tr = obs::tracer(recorder_)) {
        auto& e = tr->emit(sim_.now(), obs::EventKind::kOpFailed);
        e.host = h;
        e.label = "power_off";
      }
      note_host_fault(h);
      if (config_.inject_failures) schedule_failure(h);
      update_node_counters();
      if (on_operation_failed)
        on_operation_failed(faults::FaultOp::kPowerOff, kNoVm, h,
                            /*timed_out=*/false);
      if (on_host_online) on_host_online(h);
      return;
    }
    set_host_state(hh, HostState::kOff);
    update_power(hh);
    if (auto* tr = obs::tracer(recorder_)) {
      tr->span(shutdown_began, sim_.now(), obs::EventKind::kHostOff).host = h;
    }
    update_node_counters();
    if (on_host_off) on_host_off(h);
  });
  update_node_counters();
}

void Datacenter::boost_demand(VmId v, double new_demand_pct) {
  Vm& m = vm_mut(v);
  if (m.state != VmState::kRunning) return;
  Host& host = host_mut(m.host);
  const double clamped =
      std::clamp(new_demand_pct, m.job.cpu_pct, host.spec.cpu_capacity_pct);
  if (clamped == m.cpu_demand_pct) return;
  m.cpu_demand_pct = clamped;
  reallocate(m.host);
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
    m.cpu_demand_pct = m.job.cpu_pct;
    ++m.restarts;
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
        lost.push_back(op.vm);
        reallocate(dest);
      }
    }
  }

  set_host_state(host, HostState::kFailed);
  host.used_cpu_pct = 0;
  update_power(host);
  ++recorder_.counts.failures;
  record_fault_event("host-crash host=%u lost=%zu", static_cast<unsigned>(h),
                     lost.size());
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kHostFailed);
    e.host = h;
    e.arg("lost", static_cast<double>(lost.size()));
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
    if (auto* tr = obs::tracer(recorder_)) {
      tr->emit(sim_.now(), obs::EventKind::kHostRepaired).host = h;
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

// ---- fault-injection & recovery internals ---------------------------------

void Datacenter::apply_injection(Operation& op, faults::FaultOp fop,
                                 HostId h) {
  if (config_.fault_injector == nullptr) return;
  const faults::FaultOutcome out =
      config_.fault_injector->decide(fop, h, sim_.now());
  if (out.kind != faults::FaultOutcome::Kind::kNone) {
    if (auto* tr = obs::tracer(recorder_)) {
      auto& e = tr->emit(sim_.now(), obs::EventKind::kFaultInjected);
      e.vm = op.vm;
      e.host = h;
      e.label = outcome_name(out.kind);
    }
  }
  switch (out.kind) {
    case faults::FaultOutcome::Kind::kNone:
      break;
    case faults::FaultOutcome::Kind::kFail:
      // The operation runs part of its course and then dies (a migration
      // failing at switchover, a creation flunking its health check):
      // shorten the work and take the failure path at completion.
      op.work_s = std::max(1.0, op.work_s * out.fail_fraction);
      op.injected_fail = true;
      break;
    case faults::FaultOutcome::Kind::kHang:
      op.hung = true;
      break;
    case faults::FaultOutcome::Kind::kSlow:
      op.work_s *= out.slow_factor;
      break;
  }
}

void Datacenter::arm_op_deadline(HostId h, double mean_s) {
  if (config_.fault_injector == nullptr) return;
  Host& host = hosts_[h];
  Operation& op = host.ops.back();
  const double deadline_s =
      config_.fault_injector->plan().op_timeout_factor * mean_s;
  const Operation::Kind kind = op.kind;
  const VmId v = op.vm;
  op.deadline_event = sim_.after(
      deadline_s, [this, h, kind, v] { op_deadline_expired(h, kind, v); });
  // A hung operation never completes; its projected end — which feeds the
  // Pconc concurrency penalty — is the abort deadline.
  if (op.hung) op.ends = sim_.now() + deadline_s;
}

void Datacenter::op_deadline_expired(HostId h, Operation::Kind kind, VmId v) {
  Operation* op = find_op(hosts_[h], kind, v);
  if (op == nullptr) return;  // completed in the same timestamp
  op->deadline_event = sim::kNoEvent;
  fail_operation(h, kind, v, /*timed_out=*/true);
}

void Datacenter::fail_operation(HostId h, Operation::Kind kind, VmId v,
                                bool timed_out) {
  ++recorder_.counts.op_failures;
  if (timed_out) ++recorder_.counts.op_timeouts;
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kOpFailed);
    e.vm = v;
    e.host = h;
    switch (kind) {
      case Operation::Kind::kCreate: e.label = "create"; break;
      case Operation::Kind::kMigrateIn: e.label = "migrate"; break;
      case Operation::Kind::kCheckpoint: e.label = "checkpoint"; break;
      case Operation::Kind::kMigrateOut: e.label = "migrate_out"; break;
    }
    e.arg("timeout", timed_out ? 1.0 : 0.0);
  }
  const char* why = timed_out ? "timeout" : "op-failed";
  faults::FaultOp fop = faults::FaultOp::kCreate;
  switch (kind) {
    case Operation::Kind::kCreate:
      fop = faults::FaultOp::kCreate;
      record_fault_event("%s create vm=%u host=%u", why,
                         static_cast<unsigned>(v), static_cast<unsigned>(h));
      fail_creation(h, v);
      break;
    case Operation::Kind::kMigrateIn:
      fop = faults::FaultOp::kMigrate;
      record_fault_event("%s migrate vm=%u dst=%u", why,
                         static_cast<unsigned>(v), static_cast<unsigned>(h));
      rollback_migration(v);
      break;
    case Operation::Kind::kCheckpoint:
      fop = faults::FaultOp::kCheckpoint;
      record_fault_event("%s checkpoint vm=%u host=%u", why,
                         static_cast<unsigned>(v), static_cast<unsigned>(h));
      fail_checkpoint(h, v);
      break;
    case Operation::Kind::kMigrateOut:
      EA_ASSERT(false);  // passive leg carries no injection flags
      return;
  }
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_op_failure(h, sim_.now());
  }
  note_host_fault(h);
  if (on_operation_failed) on_operation_failed(fop, v, h, timed_out);
}

void Datacenter::fail_creation(HostId h, VmId v) {
  Vm& m = vm_mut(v);
  Host& host = host_mut(h);
  EA_ASSERT(m.state == VmState::kCreating && m.host == h);
  remove_op(host, Operation::Kind::kCreate, v);
  remove_resident(host, v);
  m.state = VmState::kQueued;
  m.host = kNoHost;
  m.progress_rate = 0;
  m.cpu_demand_pct = m.job.cpu_pct;
  ++m.restarts;
  reallocate_io(h);
  reallocate(h);
  update_node_counters();
}

void Datacenter::rollback_migration(VmId v) {
  Vm& m = vm_mut(v);
  EA_ASSERT(m.state == VmState::kMigrating && m.migration_source != kNoHost);
  const HostId dst = m.host;
  const HostId src = m.migration_source;
  remove_op(host_mut(dst), Operation::Kind::kMigrateIn, v);
  remove_op(host_mut(src), Operation::Kind::kMigrateOut, v);
  remove_resident(host_mut(dst), v);
  // The source still pins the VM's memory (via its migrate-out leg), so
  // rollback is not a placement decision and needs no fits() check: the VM
  // simply resumes where it was.
  host_mut(src).residents.push_back(v);
  m.host = src;
  m.migration_source = kNoHost;
  m.state = VmState::kRunning;
  m.last_progress_update = sim_.now();
  ++recorder_.counts.rollbacks;
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kMigrateRollback);
    e.vm = v;
    e.host = dst;
    e.host2 = src;
  }
  reallocate_io(dst);
  reallocate_io(src);
  reallocate(dst);
  reallocate(src);
  update_node_counters();
}

void Datacenter::fail_checkpoint(HostId h, VmId v) {
  // No snapshot is recorded; the previous checkpoint (if any) stays valid.
  remove_op(host_mut(h), Operation::Kind::kCheckpoint, v);
  reallocate_io(h);
  reallocate(h);
  update_node_counters();
}

void Datacenter::boot_failed(HostId h) {
  Host& host = host_mut(h);
  EA_ASSERT(host.state == HostState::kBooting);
  sim_.cancel(host.transition_event);
  host.transition_event = sim::kNoEvent;
  sim_.cancel(host.boot_deadline_event);
  host.boot_deadline_event = sim::kNoEvent;
  set_host_state(host, HostState::kOff);
  host.used_cpu_pct = 0;
  update_power(host);
  ++recorder_.counts.boot_failures;
  record_fault_event("boot-failed host=%u", static_cast<unsigned>(h));
  if (auto* tr = obs::tracer(recorder_)) {
    tr->emit(sim_.now(), obs::EventKind::kBootFailed).host = h;
  }
  if (auto* rc = resilience::controller(recorder_)) {
    rc->note_op_failure(h, sim_.now());
  }
  note_host_fault(h);
  update_node_counters();
  if (on_host_boot_failed) on_host_boot_failed(h);
}

void Datacenter::note_host_fault(HostId h) {
  const QuarantinePolicy& q = config_.quarantine;
  if (!q.enabled) return;
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
  ++recorder_.counts.quarantines;
  record_fault_event("quarantine host=%u cooldown=%.0fs",
                     static_cast<unsigned>(h), q.cooldown_s);
  if (auto* tr = obs::tracer(recorder_)) {
    auto& e = tr->emit(sim_.now(), obs::EventKind::kQuarantine);
    e.host = h;
    e.arg("cooldown_s", q.cooldown_s);
  }
  sim_.cancel(host.unquarantine_event);
  host.unquarantine_event = sim_.after(q.cooldown_s, [this, h] {
    Host& hh = host_mut(h);
    hh.unquarantine_event = sim::kNoEvent;
    hh.quarantined = false;
    hh.fault_count = 0;
    hh.fault_window_start = sim_.now();
    mark_dirty(h);  // placeability flip
    record_fault_event("unquarantine host=%u", static_cast<unsigned>(h));
    if (auto* tr = obs::tracer(recorder_)) {
      tr->emit(sim_.now(), obs::EventKind::kUnquarantine).host = h;
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

void Datacenter::record_fault_event(const char* fmt, ...) {
  if (config_.fault_injector == nullptr) return;
  char buf[160];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  config_.fault_injector->record(sim_.now(), buf);
}

}  // namespace easched::datacenter
