#include "core/score_matrix.hpp"

#include <algorithm>
#include <bit>

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
  c.cpu = vm.cpu_demand_pct;
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
  nrows_ = static_cast<int>(snap.size());

  // Immutable attributes alias the snapshot; only the plan-tracked state is
  // copied (move() mutates it). The copies land in the fleet's recycled
  // scratch buffers — move the capacity in, then assign, so steady-state
  // rounds allocate nothing.
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
  ModelScratch& scratch = fleet_->model_scratch();
  const auto take = [](auto& dst, auto& src, const auto& from) {
    dst = std::move(src);
    dst.assign(from.begin(), from.end());
  };
  take(cpu_res_, scratch.cpu_res, snap.cpu_res);
  take(mem_res_, scratch.mem_res, snap.mem_res);
  take(running_, scratch.running, snap.running_demand);
  take(vm_count_, scratch.vm_count, snap.vm_count);
  margins_ = std::move(scratch.margins);
  margins_ = fleet_->index();  // copy-assignment reuses the capacity
  plan_touched_ = std::move(scratch.plan_touched);
  plan_touched_.assign(static_cast<std::size_t>(nrows_), 0);

  for (VmId v : queued) {
    EA_EXPECTS(dc.vm(v).state == VmState::kQueued);
    VmCol c;
    fill_column_common(c, dc.vm(v), /*is_new=*/true, now);
    c.original = virtual_row();
    c.planned = c.original;
    // A queued VM's score column is round-time-independent unless PSLA is
    // on (Pvirt charges the creation cost, not the time-varying Pm; Pconc
    // cells change only when their host is dirtied, which invalidates
    // them): carry it across rounds.
    if (!reference() && !params_.use_sla) {
      c.persist = fleet_->col_cache(c.id, snap.size());
    }
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

ScoreModel::~ScoreModel() {
  ModelScratch& scratch = fleet_->model_scratch();
  scratch.cpu_res = std::move(cpu_res_);
  scratch.mem_res = std::move(mem_res_);
  scratch.running = std::move(running_);
  scratch.vm_count = std::move(vm_count_);
  scratch.plan_touched = std::move(plan_touched_);
  scratch.margins = std::move(margins_);
}

int ScoreModel::rows() const { return nrows_ + 1; }
int ScoreModel::cols() const { return static_cast<int>(vms_.size()); }

int ScoreModel::plan_row(int c) const {
  EA_EXPECTS(c >= 0 && c < cols());
  return vms_[static_cast<std::size_t>(c)].planned;
}

int ScoreModel::original_row(int c) const {
  EA_EXPECTS(c >= 0 && c < cols());
  return vms_[static_cast<std::size_t>(c)].original;
}

bool ScoreModel::movable(int c) const {
  EA_EXPECTS(c >= 0 && c < cols());
  return vms_[static_cast<std::size_t>(c)].can_move;
}

VmId ScoreModel::vm_at(int c) const {
  EA_EXPECTS(c >= 0 && c < cols());
  return vms_[static_cast<std::size_t>(c)].id;
}

HostId ScoreModel::host_at(int r) const {
  EA_EXPECTS(r >= 0 && r < virtual_row());
  return static_cast<HostId>(r);
}

bool ScoreModel::placeable(int r) const {
  EA_EXPECTS(r >= 0 && r < virtual_row());
  return placeable_[r] != 0;
}

double ScoreModel::cell(int r, int c) const {
  EA_EXPECTS(r >= 0 && r < rows());
  EA_EXPECTS(c >= 0 && c < cols());
  if (r == virtual_row()) return kInfScore;
  FleetColCache* persist = vms_[static_cast<std::size_t>(c)].persist;
  if (persist == nullptr || plan_touched_[static_cast<std::size_t>(r)] != 0) {
    return evaluate(r, c).total;
  }
  // Untouched row: the row's plan state equals the snapshot, so the
  // persisted value (evaluated against the same snapshot entry; a re-read
  // would have invalidated it) is exact. A fresh evaluation is persisted
  // for the next read and the next round.
  const auto h = static_cast<std::size_t>(r);
  if (persist->ok[h] == 0) {
    persist->by_host[h] = evaluate(r, c).total;
    persist->ok[h] = 1;
  }
  return persist->by_host[h];
}

bool ScoreModel::provably_inf(int r, int c) const {
  if (reference()) return false;
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  if (v.planned == r) return false;  // need is 0; the keep cell may be finite
  if (placeable_[r] == 0) return true;      // compat folds placeability
  if (arch_[r] != v.arch || (software_[r] & v.software) != v.software) {
    return true;
  }
  const auto h = static_cast<HostId>(r);
  return v.cpu > margins_.free_cpu(h) || v.mem > margins_.free_mem(h);
}

bool ScoreModel::skip_block(int c, int blk) const {
  if (reference()) return false;
  const std::vector<double>& block_cpu = margins_.block_free_cpu();
  if (blk < 0 || blk >= static_cast<int>(block_cpu.size())) {
    return false;  // the virtual row's tail block is never skippable
  }
  // The block maxima only prove capacity infeasibility, not compatibility
  // — but a skipped candidate would have delta >= 0 either way, and the
  // plan row is exempt because rescans skip it anyway.
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  const auto b = static_cast<std::size_t>(blk);
  return v.cpu > block_cpu[b] || v.mem > margins_.block_free_mem()[b];
}

ScoreBreakdown ScoreModel::breakdown(int r, int c) const {
  EA_EXPECTS(r >= 0 && r < rows());
  EA_EXPECTS(c >= 0 && c < cols());
  if (r == virtual_row()) {
    ScoreBreakdown b;
    b.req = kInfScore;
    b.total = kInfScore;
    return b;
  }
  return evaluate(r, c);
}

ScoreBreakdown ScoreModel::evaluate(int r, int c) const {
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  ScoreBreakdown b;

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

void ScoreModel::touch_row(int r) {
  const auto i = static_cast<std::size_t>(r);
  plan_touched_[i] = 1;
  margins_.set(static_cast<HostId>(r),
               free_margin(placeable_[r] != 0, cap_cpu_[r], cpu_res_[i]),
               free_margin(placeable_[r] != 0, cap_mem_[r], mem_res_[i]));
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
  if (v.planned != virtual_row()) {
    const auto old_row = static_cast<std::size_t>(v.planned);
    cpu_res_[old_row] -= v.cpu;
    mem_res_[old_row] -= v.mem;
    vm_count_[old_row] -= 1;
    running_[old_row] -= v.cpu;
    dirty.row_a = v.planned;
  }
  if (r != virtual_row()) {
    const auto new_row = static_cast<std::size_t>(r);
    cpu_res_[new_row] += v.cpu;
    mem_res_[new_row] += v.mem;
    vm_count_[new_row] += 1;
    running_[new_row] += v.cpu;
  }
  v.planned = r;
  if (dirty.row_a >= 0) touch_row(dirty.row_a);
  if (dirty.row_b >= 0) touch_row(dirty.row_b);
  return dirty;
}

int ScoreModel::count_cache_divergences(int* first_r, int* first_c) const {
  int diverged = 0;
  for (int c = 0; c < cols(); ++c) {
    const FleetColCache* persist = vms_[static_cast<std::size_t>(c)].persist;
    if (persist == nullptr) continue;
    for (int r = 0; r < virtual_row(); ++r) {
      const auto h = static_cast<std::size_t>(r);
      // Touched rows bypass the column; invalid cells are never read.
      if (plan_touched_[h] != 0 || persist->ok[h] == 0) continue;
      // Bitwise comparison, matching the zero-tolerance contract the
      // property tests hold: both sides run the same arithmetic.
      if (persist->by_host[h] != evaluate(r, c).total) {
        if (diverged == 0) {
          if (first_r != nullptr) *first_r = r;
          if (first_c != nullptr) *first_c = c;
        }
        ++diverged;
      }
    }
  }
  return diverged;
}

void ScoreModel::debug_corrupt_cache(int r, int c, double delta) {
  EA_EXPECTS(r >= 0 && r < virtual_row());
  EA_EXPECTS(c >= 0 && c < cols());
  FleetColCache* persist = vms_[static_cast<std::size_t>(c)].persist;
  EA_EXPECTS(persist != nullptr);
  EA_EXPECTS(plan_touched_[static_cast<std::size_t>(r)] == 0);
  (void)cell(r, c);  // persist the cell so the perturbation sticks
  persist->by_host[static_cast<std::size_t>(r)] += delta;
}

void ScoreModel::column_key(std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(vms_.size() * 12);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const VmCol& v : vms_) {
    out.insert(out.end(),
               {bits(v.cpu), bits(v.mem), bits(v.elapsed_s),
                bits(v.remaining_user_s), bits(v.remaining_work_s),
                bits(v.deadline_s), bits(v.fault_tolerance),
                static_cast<std::uint64_t>(v.is_new),
                static_cast<std::uint64_t>(v.original),
                static_cast<std::uint64_t>(v.planned),
                static_cast<std::uint64_t>(v.arch), v.software});
  }
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
