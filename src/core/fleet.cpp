#include "core/fleet.hpp"

#include <algorithm>

#include "datacenter/datacenter.hpp"
#include "resilience/resilience.hpp"
#include "support/contracts.hpp"

namespace easched::core {

using datacenter::Datacenter;
using datacenter::HostId;
using datacenter::VmId;
using datacenter::VmState;

void FleetSnapshot::resize(std::size_t n) {
  placeable.assign(n, 0);
  cpu_cap.assign(n, 0.0);
  mem_cap.assign(n, 0.0);
  cpu_res.assign(n, 0.0);
  mem_res.assign(n, 0.0);
  vm_count.assign(n, 0);
  running_demand.assign(n, 0.0);
  mgmt_demand.assign(n, 0.0);
  conc_remaining_s.assign(n, 0.0);
  creation_cost.assign(n, 0.0);
  migration_cost.assign(n, 0.0);
  reliability.assign(n, 1.0);
  arch.assign(n, workload::Arch{});
  software.assign(n, 0);
}

void RowExtrema::include(const FleetSnapshot& snap, HostId h) {
  if (snap.placeable[h] == 0) return;
  any_placeable = true;
  min_cc = std::min(min_cc, snap.creation_cost[h]);
  min_cm = std::min(min_cm, snap.migration_cost[h]);
  min_conc = std::min(min_conc, snap.conc_remaining_s[h]);
  min_rel = std::min(min_rel, snap.reliability[h]);
  max_rel = std::max(max_rel, snap.reliability[h]);
}

void RowExtrema::merge(const RowExtrema& o) {
  any_placeable = any_placeable || o.any_placeable;
  min_cc = std::min(min_cc, o.min_cc);
  min_cm = std::min(min_cm, o.min_cm);
  min_conc = std::min(min_conc, o.min_conc);
  min_rel = std::min(min_rel, o.min_rel);
  max_rel = std::max(max_rel, o.max_rel);
}

BlockSummary summarize_block(const FleetSnapshot& snap, std::size_t blk) {
  const std::size_t lo = blk * static_cast<std::size_t>(kArgminBlock);
  const std::size_t hi =
      std::min(snap.size(), lo + static_cast<std::size_t>(kArgminBlock));
  BlockSummary s;
  for (std::size_t i = lo; i < hi; ++i) {
    const auto h = static_cast<HostId>(i);
    const bool placeable = snap.placeable[h] != 0;
    s.max_free_cpu = std::max(
        s.max_free_cpu,
        free_margin(placeable, snap.cpu_cap[h], snap.cpu_res[h]));
    s.max_free_mem = std::max(
        s.max_free_mem,
        free_margin(placeable, snap.mem_cap[h], snap.mem_res[h]));
    s.extrema.include(snap, h);
  }
  return s;
}

RowExtrema FleetState::extrema() const {
  RowExtrema x;
  for (const BlockSummary& b : blocks_) x.merge(b.extrema);
  return x;
}

void FleetState::mark_block(HostId h) {
  const std::size_t blk = h / static_cast<std::size_t>(kArgminBlock);
  if (block_marked_[blk] != 0) return;
  block_marked_[blk] = 1;
  marked_blocks_.push_back(blk);
}

void FleetState::summarize_marked() {
  for (const std::size_t blk : marked_blocks_) {
    blocks_[blk] = summarize_block(snap_, blk);
    block_marked_[blk] = 0;
  }
  marked_blocks_.clear();
}

void FleetState::refresh(const Datacenter& dc) {
  EA_EXPECTS(!planning());
  const std::size_t n = dc.num_hosts();
  ++stats_.refreshes;

  dirty_scratch_.clear();
  const auto mark = [this](HostId h) {
    if (dirty_flag_[h] != 0) return;
    dirty_flag_[h] = 1;
    dirty_scratch_.push_back(h);
  };

  std::uint64_t visited = 0;  // hosts examined outside the journal
  if (snap_.size() != n) {
    // First refresh (or a fleet-size change): full (re)initialization.
    reset(n);
    journal_scratch_.clear();
    dc.drain_fleet_dirty(journal_scratch_);  // flush the stale backlog
    journal_scratch_.clear();
    dirty_scratch_.reserve(n);
    for (HostId h = 0; h < n; ++h) mark(h);
  } else {
    // 1. Event-driven dirt: everything the Datacenter journalled since the
    //    last round (reallocations, operation starts and ends, power
    //    transitions, maintenance and quarantine flips, debug mutations).
    journal_scratch_.clear();
    dc.drain_fleet_dirty(journal_scratch_);
    for (const HostId h : journal_scratch_) mark(h);
    // 2. Busy hosts: Σ max(0, op.ends - now) ages with the clock, so a
    //    host whose last read saw operations is re-read every round. A
    //    host that was idle then cannot have gained one since without
    //    being journalled (every operation start goes through
    //    reallocate_io or reallocate).
    visited += busy_.size();
    for (const HostId h : busy_) mark(h);
    // 3. Breaker vetoes: circuit breakers flip dc.placeable(h) from inside
    //    the resilience controller, without touching the Datacenter, and
    //    the half-open probe delay elapses with the clock alone. Only a
    //    host whose breaker is not Healthy can be vetoed, so re-checking
    //    the hosts not Healthy now or at the last refresh covers every
    //    flip since.
    const auto recheck = [&](HostId h) {
      ++visited;
      if (dirty_flag_[h] == 0 &&
          (snap_.placeable[h] != 0) != dc.placeable(h)) {
        mark(h);
      }
    };
    for (const HostId h : veto_watch_) recheck(h);
    if (const auto* rc = resilience::controller(dc.recorder())) {
      for (const HostId h : rc->not_healthy_hosts()) recheck(h);
    }
  }
  stats_.last_out_of_band = visited;

  read_dirty(dc);
  stats_.last_reread = dirty_scratch_.size();
  stats_.hosts_reread += dirty_scratch_.size();
}

void FleetState::read_all(const Datacenter& dc) {
  EA_EXPECTS(!planning());
  const std::size_t n = dc.num_hosts();
  reset(n);
  dirty_scratch_.clear();
  for (HostId h = 0; h < n; ++h) dirty_scratch_.push_back(h);
  read_dirty(dc);
}

void FleetState::read_dirty(const Datacenter& dc) {
  const sim::SimTime now = dc.simulator().now();
  busy_.clear();
  for (const HostId h : dirty_scratch_) {
    read_host(dc, h, now, snap_);
    mark_block(h);
    dirty_flag_[h] = 0;
    // Every host that was busy at its last read is in this round's dirty
    // set, so rebuilding the busy set from the hosts read here is exact.
    if (!dc.host(h).ops.empty() || snap_.conc_remaining_s[h] != 0 ||
        snap_.mgmt_demand[h] != 0) {
      busy_.push_back(h);
    }
  }
  summarize_marked();
  veto_watch_.clear();
  if (const auto* rc = resilience::controller(dc.recorder())) {
    veto_watch_.assign(rc->not_healthy_hosts().begin(),
                       rc->not_healthy_hosts().end());
  }
}

void FleetState::reset(std::size_t n) {
  snap_.resize(n);
  blocks_.assign(num_blocks(n), BlockSummary{});
  block_marked_.assign(blocks_.size(), 0);
  marked_blocks_.clear();
  dirty_flag_.assign(n, 0);
  plan_touched_.assign(n, 0);
  busy_.clear();
  veto_watch_.clear();
}

void FleetState::read_host(const Datacenter& dc, HostId h, sim::SimTime now,
                           FleetSnapshot& snap) {
  const auto& host = dc.host(h);
  snap.placeable[h] = dc.placeable(h) ? 1 : 0;
  snap.cpu_cap[h] = host.spec.cpu_capacity_pct;
  snap.mem_cap[h] = host.spec.mem_mb;
  snap.cpu_res[h] = dc.reserved_cpu_pct(h);
  snap.mem_res[h] = dc.reserved_mem_mb(h);
  snap.vm_count[h] = static_cast<int>(host.vm_count());
  snap.mgmt_demand[h] = host.mgmt_demand_pct();
  double conc = 0;
  for (const auto& op : host.ops) conc += std::max(0.0, op.ends - now);
  snap.conc_remaining_s[h] = conc;
  double running = 0;
  for (const VmId v : host.residents) {
    if (dc.vm(v).state == VmState::kRunning) {
      running += dc.vm(v).job.cpu_pct;
    }
  }
  snap.running_demand[h] = running;
  snap.creation_cost[h] = host.spec.creation_cost_s;
  snap.migration_cost[h] = host.spec.migration_cost_s;
  snap.reliability[h] = host.spec.reliability;
  snap.arch[h] = host.spec.arch;
  snap.software[h] = host.spec.software;
}

void FleetState::plan_add(const ScoreModel* planner, HostId h, double cpu,
                          double mem, int count) {
  EA_EXPECTS(planner_ == nullptr || planner_ == planner);
  EA_EXPECTS(h < snap_.size());
  planner_ = planner;
  if (plan_touched_[h] == 0) {
    plan_touched_[h] = 1;
    plan_log_.push_back({h, snap_.vm_count[h], snap_.cpu_res[h],
                         snap_.mem_res[h], snap_.running_demand[h]});
  }
  snap_.cpu_res[h] += cpu;
  snap_.mem_res[h] += mem;
  snap_.running_demand[h] += cpu;
  snap_.vm_count[h] += count;
  const std::size_t blk = h / static_cast<std::size_t>(kArgminBlock);
  blocks_[blk] = summarize_block(snap_, blk);
}

void FleetState::restore_plan(const ScoreModel* planner) {
  if (planner_ != planner) return;
  for (auto it = plan_log_.rbegin(); it != plan_log_.rend(); ++it) {
    const HostId h = it->h;
    snap_.cpu_res[h] = it->cpu_res;
    snap_.mem_res[h] = it->mem_res;
    snap_.running_demand[h] = it->running;
    snap_.vm_count[h] = it->vm_count;
    plan_touched_[h] = 0;
    mark_block(h);
  }
  summarize_marked();
  plan_log_.clear();
  planner_ = nullptr;
}

void FleetState::debug_corrupt_snapshot(HostId h, double delta) {
  EA_EXPECTS(h < snap_.size());
  snap_.cpu_res[h] += delta;
}

void FleetState::debug_set_block(std::size_t blk, const BlockSummary& summary) {
  EA_EXPECTS(blk < blocks_.size());
  blocks_[blk] = summary;
}

}  // namespace easched::core
