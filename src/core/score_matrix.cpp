#include "core/score_matrix.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/penalties.hpp"
#include "support/contracts.hpp"
#include "workload/satisfaction.hpp"

namespace easched::core {

using datacenter::HostId;
using datacenter::VmId;
using datacenter::VmState;

void ScoreModel::fill_column_common(VmCol& c, const datacenter::Vm& vm,
                                    bool is_new, sim::SimTime now) {
  c.id = vm.id;
  c.cpu = vm.job.cpu_pct;
  c.mem = vm.job.mem_mb;
  c.is_new = is_new;
  c.can_move = true;
  c.elapsed_s = now - vm.job.submit;
  c.remaining_user_s = vm.job.dedicated_seconds - c.elapsed_s;
  c.remaining_work_s = vm.remaining_work_s();
  c.deadline_s = vm.job.deadline_seconds();
  c.fault_tolerance = vm.job.fault_tolerance;
  c.arch = vm.job.arch;
  c.software = vm.job.software;
}

ScoreModel::ScoreModel(FleetState& fleet, const datacenter::Datacenter& dc,
                       const std::vector<VmId>& queued,
                       const ScoreParams& params, bool migration_enabled)
    : params_(params), fleet_(&fleet) {
  init(dc, queued, migration_enabled);
}

ScoreModel::ScoreModel(const datacenter::Datacenter& dc,
                       const std::vector<VmId>& queued,
                       const ScoreParams& params, bool migration_enabled)
    : params_(params),
      owned_fleet_(std::make_unique<FleetState>()),
      fleet_(owned_fleet_.get()) {
  owned_fleet_->read_all(dc);
  init(dc, queued, migration_enabled);
}

void ScoreModel::init(const datacenter::Datacenter& dc,
                      const std::vector<VmId>& queued,
                      bool migration_enabled) {
  const sim::SimTime now = dc.simulator().now();
  const FleetSnapshot& snap = fleet_->snapshot();
  EA_EXPECTS(snap.size() == dc.num_hosts());
  EA_EXPECTS(!fleet_->planning());
  nrows_ = static_cast<int>(snap.size());

  // Every per-row attribute aliases the snapshot; move() plans on the
  // plan-tracked ones in place, copy on touch (FleetState::plan_add).
  placeable_ = snap.placeable.data();
  cap_cpu_ = snap.cpu_cap.data();
  cap_mem_ = snap.mem_cap.data();
  mgmt_ = snap.mgmt_demand.data();
  conc_ = snap.conc_remaining_s.data();
  cost_create_ = snap.creation_cost.data();
  cost_migrate_ = snap.migration_cost.data();
  reliability_ = snap.reliability.data();
  arch_ = snap.arch.data();
  software_ = snap.software.data();
  cpu_res_ = snap.cpu_res.data();
  mem_res_ = snap.mem_res.data();
  running_ = snap.running_demand.data();
  vm_count_ = snap.vm_count.data();

  for (VmId v : queued) {
    EA_EXPECTS(dc.vm(v).state == VmState::kQueued);
    VmCol c;
    fill_column_common(c, dc.vm(v), /*is_new=*/true, now);
    c.original = virtual_row();
    c.planned = c.original;
    vms_.push_back(c);
  }
  if (migration_enabled) {
    for (VmId v : dc.active_vms()) {
      const auto& vm = dc.vm(v);
      // VMs with an operation in flight have infinite scores everywhere
      // but home (III-A.3); excluding them as columns is equivalent. A
      // running VM on a non-placeable host is pinned, not a column.
      if (vm.state != VmState::kRunning) continue;
      if (snap.placeable[vm.host] == 0) continue;
      VmCol c;
      fill_column_common(c, vm, /*is_new=*/false, now);
      c.original = static_cast<int>(vm.host);
      c.planned = c.original;
      vms_.push_back(c);
    }
  }
}

ScoreModel::~ScoreModel() { fleet_->restore_plan(this); }

bool ScoreModel::block_live(int blk) const {
  if (reference()) return true;
  const std::vector<BlockSummary>& blocks = fleet_->blocks();
  if (blk >= static_cast<int>(blocks.size())) {
    return false;  // the virtual row alone: kInfScore
  }
  return blocks[static_cast<std::size_t>(blk)].extrema.any_placeable;
}

bool ScoreModel::skip_block(int c, int blk) const {
  if (reference()) return false;
  const std::vector<BlockSummary>& blocks = fleet_->blocks();
  // A tail block holding only the virtual row is dead (block_live), so
  // the climb never asks about it.
  EA_EXPECTS(blk >= 0 && blk < static_cast<int>(blocks.size()));
  // The block maxima only prove capacity infeasibility, not compatibility
  // — but a skipped candidate would have delta >= 0 either way, and the
  // plan row is exempt because rescans skip it anyway.
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  const BlockSummary& b = blocks[static_cast<std::size_t>(blk)];
  return v.cpu > b.max_free_cpu || v.mem > b.max_free_mem;
}

const RowExtrema& ScoreModel::row_extrema() const {
  if (!extrema_) extrema_ = fleet_->extrema();
  return *extrema_;
}

double ScoreModel::score_floor(int c) const {
  EA_EXPECTS(c >= 0 && c < cols());
  if (reference() || params_.c_fill < 0) {
    return -std::numeric_limits<double>::infinity();
  }
  const RowExtrema& x = row_extrema();
  if (!x.any_placeable) return kInfScore;  // every real row is Preq-inf
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  // A running VM planned away from home has its home row as a candidate,
  // where Pvirt and Pconc are 0.
  const bool home_candidate = !v.is_new && v.planned != v.original;

  // The same terms in the same accumulation order as breakdown(), each
  // replaced by its lower bound; Pres is 0 on every finite cell.
  double s = 0.0;
  if (params_.use_virt) {
    // p_migration is non-decreasing in Cm at a fixed Tr.
    const double virt =
        v.is_new ? x.min_cc : p_migration(x.min_cm, v.remaining_user_s);
    s += home_candidate ? std::min(virt, 0.0) : virt;
  }
  if (params_.use_conc) {
    s += home_candidate ? 0.0 : x.min_conc;
  }
  if (params_.use_pwr) {
    // A finite cell's occupation is at most 1 + 1e-9 (p_res).
    s += std::min(0.0, params_.c_empty) - (1.0 + 1e-9) * params_.c_fill;
  }
  if (params_.use_sla) {
    s += std::min(0.0, params_.c_sla);
  }
  if (params_.use_fault) {
    // Linear in the reliability, so its minimum is at an end of the range.
    s += std::min(
        p_fault(x.min_rel, v.fault_tolerance, params_.c_fail),
        p_fault(x.max_rel, v.fault_tolerance, params_.c_fail));
  }
  return std::min(s, kInfScore);
}

ScoreBreakdown ScoreModel::breakdown(int r, int c) const {
  EA_EXPECTS(r >= 0 && r < rows());
  EA_EXPECTS(c >= 0 && c < cols());
  ScoreBreakdown b;
  if (r == virtual_row()) {
    b.req = kInfScore;
    b.total = kInfScore;
    return b;
  }
  const VmCol& v = vms_[static_cast<std::size_t>(c)];

  // Preq — hardware and software requirements, placeability folded in.
  b.req = p_req(placeable_[r] != 0 && arch_[r] == v.arch &&
                (software_[r] & v.software) == v.software);
  if (is_inf_score(b.req)) {
    b.total = kInfScore;
    return b;
  }

  const bool planned_here = v.planned == r;
  const bool home = v.original == r;

  // Pres — occupation after allocating the VM here.
  const double cpu =
      cpu_res_[static_cast<std::size_t>(r)] + (planned_here ? 0.0 : v.cpu);
  const double mem =
      mem_res_[static_cast<std::size_t>(r)] + (planned_here ? 0.0 : v.mem);
  const double occupation =
      std::max(cpu / cap_cpu_[r], mem / cap_mem_[r]);
  b.res = p_res(occupation);
  if (is_inf_score(b.res)) {
    b.total = kInfScore;
    return b;
  }

  // Left-to-right accumulation in the ScoreBreakdown field order (req is
  // 0 here), so summing the terms reproduces `total` bit for bit.
  double s = b.res;
  if (params_.use_virt) {
    // Pvirt is charged from the original location, the migration term Pm
    // against the user-estimated remaining time.
    const double pm = p_migration(cost_migrate_[r], v.remaining_user_s);
    b.virt = p_virt(home, /*operation_on_vm=*/false, v.is_new,
                    cost_create_[r], pm);
    s += b.virt;
  }
  if (params_.use_conc) {
    b.conc = p_conc(home, conc_[r]);
    s += b.conc;
  }
  if (params_.use_pwr) {
    const int count_wo_vm =
        vm_count_[static_cast<std::size_t>(r)] - (planned_here ? 1 : 0);
    b.pwr = p_pwr(count_wo_vm, params_.th_empty, params_.c_empty, occupation,
                  params_.c_fill);
    s += b.pwr;
  }
  if (params_.use_sla) {
    double demand = running_[static_cast<std::size_t>(r)] + mgmt_[r];
    if (!planned_here) demand += v.cpu;
    const double rate =
        demand <= cap_cpu_[r] || demand <= 0 ? 1.0 : cap_cpu_[r] / demand;
    // The transfer itself delays the job: creation for a new VM, the
    // migration pause when the candidate host is not the VM's home.
    const double transfer =
        v.is_new ? cost_create_[r] : (home ? 0.0 : cost_migrate_[r]);
    const double projected =
        v.elapsed_s + transfer + v.remaining_work_s / rate;
    const double fulfilment =
        workload::satisfaction(std::max(projected, 0.0), v.deadline_s) /
        100.0;
    b.sla = p_sla(fulfilment, params_.th_sla, params_.c_sla);
    s += b.sla;
  }
  if (params_.use_fault) {
    b.fault = p_fault(reliability_[r], v.fault_tolerance, params_.c_fail);
    s += b.fault;
  }
  b.total = std::min(s, kInfScore);
  return b;
}

ScoreModel::IdleRowKey ScoreModel::idle_row_key(int r) const {
  EA_EXPECTS(r >= 0 && r < virtual_row());
  EA_EXPECTS(!fleet_->planning());
  EA_EXPECTS(placeable_[r] != 0);
  const auto i = static_cast<std::size_t>(r);
  EA_EXPECTS(cpu_res_[i] == 0 && mem_res_[i] == 0 && vm_count_[i] == 0);
  EA_EXPECTS(running_[i] == 0 && mgmt_[r] == 0 && conc_[r] == 0);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return {bits(cap_cpu_[r]), bits(cap_mem_[r]), bits(cost_create_[r]),
          bits(cost_migrate_[r]), bits(reliability_[r]),
          static_cast<std::uint64_t>(arch_[r]), software_[r]};
}

ScoreModel::Dirty ScoreModel::move(int r, int c) {
  // Hill climbing only plans moves onto real hosts; the exhaustive
  // reference solver additionally undoes placements by moving a queued
  // column back to the virtual row (r == virtual_row()).
  EA_EXPECTS(r >= 0 && r <= virtual_row());
  EA_EXPECTS(c >= 0 && c < cols());
  VmCol& v = vms_[static_cast<std::size_t>(c)];
  EA_EXPECTS(v.can_move);
  EA_EXPECTS(v.planned != r);

  Dirty dirty;
  dirty.col = c;
  dirty.row_b = r == virtual_row() ? -1 : r;
  // Planning the VM off its row adds its negated demand (x + (-y) is
  // exactly x - y).
  if (v.planned != virtual_row()) {
    fleet_->plan_add(this, static_cast<HostId>(v.planned), -v.cpu, -v.mem,
                     -1);
    dirty.row_a = v.planned;
  }
  if (r != virtual_row()) {
    fleet_->plan_add(this, static_cast<HostId>(r), v.cpu, v.mem, 1);
  }
  v.planned = r;
  return dirty;
}

double ScoreModel::row_aggregate(int r) const {
  EA_EXPECTS(r >= 0 && r < rows());
  if (r == virtual_row()) return kInfScore;
  double finite_sum = 0;
  int inf_count = 0;
  for (int c = 0; c < cols(); ++c) {
    const double s = cell(r, c);
    if (is_inf_score(s)) {
      ++inf_count;
    } else {
      finite_sum += s;
    }
  }
  // Fold the infinity count in at weight 1e9: rows compare mainly by
  // their count of infinite cells, then by their finite parts when the
  // counts tie. The weight does not dominate every finite sum — with PSLA
  // on, a soft-infinite cell (kSoftInfScore, also 1e9) is finite and
  // weighs as much as one infinite cell — but the power-off ranking is
  // defined by this formula, so it stays as it is.
  return inf_count * 1e9 + finite_sum;
}

}  // namespace easched::core
