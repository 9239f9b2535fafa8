#include "core/score_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

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
  const HostBucketIndex& index = fleet_->index();
  take(cpu_res_, scratch.cpu_res, snap.cpu_res);
  take(mem_res_, scratch.mem_res, snap.mem_res);
  take(running_, scratch.running, snap.running_demand);
  take(vm_count_, scratch.vm_count, snap.vm_count);
  take(free_cpu_, scratch.free_cpu, index.free_cpu_all());
  take(free_mem_, scratch.free_mem, index.free_mem_all());
  take(block_free_cpu_, scratch.block_free_cpu, index.block_free_cpu());
  take(block_free_mem_, scratch.block_free_mem, index.block_free_mem());
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

  // The M x N arrays are the round's dominant allocation at fleet scale;
  // recycle them too. The data arrays only ever grow: a cell is read only
  // after its _ok flag is set, so the stale bytes of an earlier (larger or
  // differently shaped) model are never seen, and shrinking-then-growing
  // would zero-fill every appended cell of each large model (power-off
  // models alternate with small queue-only rounds). Only the _ok flags pay
  // a clear per model.
  const std::size_t cells =
      static_cast<std::size_t>(nrows_) * vms_.size();
  static_terms_ = std::move(scratch.static_terms);
  if (static_terms_.size() < cells) static_terms_.resize(cells);
  static_ok_ = std::move(scratch.static_ok);
  static_ok_.assign(cells, 0);  // built lazily; most cells prune away
  cache_ = std::move(scratch.cache);
  if (cache_.size() < cells) cache_.resize(cells);
  cache_ok_ = std::move(scratch.cache_ok);
  cache_ok_.assign(cells, 0);
}

ScoreModel::~ScoreModel() {
  ModelScratch& scratch = fleet_->model_scratch();
  scratch.cpu_res = std::move(cpu_res_);
  scratch.mem_res = std::move(mem_res_);
  scratch.running = std::move(running_);
  scratch.vm_count = std::move(vm_count_);
  scratch.free_cpu = std::move(free_cpu_);
  scratch.free_mem = std::move(free_mem_);
  scratch.block_free_cpu = std::move(block_free_cpu_);
  scratch.block_free_mem = std::move(block_free_mem_);
  scratch.plan_touched = std::move(plan_touched_);
  scratch.static_terms = std::move(static_terms_);
  scratch.static_ok = std::move(static_ok_);
  scratch.cache = std::move(cache_);
  scratch.cache_ok = std::move(cache_ok_);
}

void ScoreModel::build_static_cell(int r, int c) const {
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  StaticTerms& st = static_terms_[at(r, c)];
  st.compat = placeable_[r] != 0 && arch_[r] == v.arch &&
              (software_[r] & v.software) == v.software;
  if (!st.compat) return;
  const bool home = v.original == r;
  if (params_.use_virt) {
    const double pm = p_migration(cost_migrate_[r], v.remaining_user_s);
    st.virt = p_virt(home, /*operation_on_vm=*/false, v.is_new,
                     cost_create_[r], pm);
  }
  st.conc = p_conc(home, conc_[r]);
  st.fault = p_fault(reliability_[r], v.fault_tolerance, params_.c_fail);
}

void ScoreModel::prime() {
  if (!reference()) return;  // the argmin warms what it reads
  const int nrows = nrows_;
  const int ncols = static_cast<int>(vms_.size());
  if (nrows == 0 || ncols == 0) return;
  for (int r = 0; r < nrows; ++r) {
    for (int c = 0; c < ncols; ++c) {
      const std::size_t i = at(r, c);
      if (!cache_ok_[i]) {
        cache_[i] = score_cell(r, c);
        cache_ok_[i] = 1;
      }
    }
  }
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
  const std::size_t i = at(r, c);
  if (!cache_ok_[i]) {
    FleetColCache* persist = vms_[static_cast<std::size_t>(c)].persist;
    if (persist != nullptr && plan_touched_[static_cast<std::size_t>(r)] == 0) {
      // Untouched row: the row's plan state equals the
      // snapshot, so the cross-round persisted value (computed under the
      // same state last round — its host would have been dirtied
      // otherwise) is exact; a fresh evaluation is persisted for the next
      // round.
      auto& ok = persist->ok[static_cast<std::size_t>(r)];
      if (ok != 0) {
        cache_[i] = persist->by_host[static_cast<std::size_t>(r)];
      } else {
        cache_[i] = score_cell(r, c);
        persist->by_host[static_cast<std::size_t>(r)] = cache_[i];
        ok = 1;
      }
    } else {
      cache_[i] = score_cell(r, c);
    }
    cache_ok_[i] = 1;
  }
  return cache_[i];
}

double ScoreModel::recompute_cell(int r, int c) const {
  EA_EXPECTS(r >= 0 && r < rows());
  EA_EXPECTS(c >= 0 && c < cols());
  if (r == virtual_row()) return kInfScore;
  return score_cell(r, c);
}

bool ScoreModel::provably_inf(int r, int c) const {
  if (reference()) return false;
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  if (v.planned == r) return false;  // need is 0; the keep cell may be finite
  if (placeable_[r] == 0) return true;      // compat folds placeability
  if (arch_[r] != v.arch || (software_[r] & v.software) != v.software) {
    return true;
  }
  return v.cpu > free_cpu_[static_cast<std::size_t>(r)] ||
         v.mem > free_mem_[static_cast<std::size_t>(r)];
}

bool ScoreModel::skip_block(int c, int blk) const {
  if (reference()) return false;
  if (blk < 0 || blk >= static_cast<int>(block_free_cpu_.size())) {
    return false;  // the virtual row's tail block is never skippable
  }
  // The block maxima only prove capacity infeasibility, not compatibility
  // — but a skipped candidate would have delta >= 0 either way, and the
  // plan row is exempt because rescans skip it anyway.
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  return v.cpu > block_free_cpu_[static_cast<std::size_t>(blk)] ||
         v.mem > block_free_mem_[static_cast<std::size_t>(blk)];
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
  // Term-for-term mirror of score_cell(): same expressions, same
  // accumulation order, so the left-to-right sum of the terms reproduces
  // cell(r, c) bit for bit.
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  const StaticTerms& st = ensure_static(r, c);
  if (!st.compat) {
    b.req = kInfScore;
    b.total = kInfScore;
    return b;
  }
  const bool planned_here = v.planned == r;
  const bool home = v.original == r;
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
  double s = b.res;
  if (params_.use_virt) {
    b.virt = st.virt;
    s += b.virt;
  }
  if (params_.use_conc) {
    b.conc = st.conc;
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
    b.fault = st.fault;
    s += b.fault;
  }
  b.total = std::min(s, kInfScore);
  return b;
}

double ScoreModel::score_cell(int r, int c) const {
  const VmCol& v = vms_[static_cast<std::size_t>(c)];
  const StaticTerms& st = ensure_static(r, c);

  // Preq — hardware and software requirements (plan-independent).
  if (!st.compat) return kInfScore;

  const bool planned_here = v.planned == r;
  const bool home = v.original == r;

  // Pres — occupation after allocating the VM here.
  const double cpu =
      cpu_res_[static_cast<std::size_t>(r)] + (planned_here ? 0.0 : v.cpu);
  const double mem =
      mem_res_[static_cast<std::size_t>(r)] + (planned_here ? 0.0 : v.mem);
  const double occupation =
      std::max(cpu / cap_cpu_[r], mem / cap_mem_[r]);
  double s = p_res(occupation);
  if (is_inf_score(s)) return kInfScore;

  if (params_.use_virt) {
    s += st.virt;
  }
  if (params_.use_conc) {
    s += st.conc;
  }
  if (params_.use_pwr) {
    const int count_wo_vm =
        vm_count_[static_cast<std::size_t>(r)] - (planned_here ? 1 : 0);
    s += p_pwr(count_wo_vm, params_.th_empty, params_.c_empty, occupation,
               params_.c_fill);
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
    s += p_sla(fulfilment, params_.th_sla, params_.c_sla);
  }
  if (params_.use_fault) {
    s += st.fault;
  }
  return std::min(s, kInfScore);
}

void ScoreModel::invalidate_row(int r) {
  const std::size_t ncols = vms_.size();
  if (ncols == 0) return;
  std::memset(cache_ok_.data() + at(r, 0), 0, ncols);
}

void ScoreModel::touch_row(int r) {
  const auto i = static_cast<std::size_t>(r);
  plan_touched_[i] = 1;
  free_cpu_[i] = placeable_[r] != 0
                     ? cap_cpu_[r] * kFleetOverMargin - cpu_res_[i]
                     : -1.0;
  free_mem_[i] = placeable_[r] != 0
                     ? cap_mem_[r] * kFleetOverMargin - mem_res_[i]
                     : -1.0;
  rebuild_margin_block(r / kArgminBlock);
}

void ScoreModel::rebuild_margin_block(int blk) {
  const int lo = blk * kArgminBlock;
  const int hi = std::min(nrows_, lo + kArgminBlock);
  double best_cpu = -1.0;
  double best_mem = -1.0;
  for (int r = lo; r < hi; ++r) {
    best_cpu = std::max(best_cpu, free_cpu_[static_cast<std::size_t>(r)]);
    best_mem = std::max(best_mem, free_mem_[static_cast<std::size_t>(r)]);
  }
  block_free_cpu_[static_cast<std::size_t>(blk)] = best_cpu;
  block_free_mem_[static_cast<std::size_t>(blk)] = best_mem;
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
  {
    obs::PhaseProfiler::Scope scope(profiler_, obs::Phase::kInvalidate);
    if (dirty.row_a >= 0) invalidate_row(dirty.row_a);
    if (dirty.row_b >= 0) invalidate_row(dirty.row_b);
  }
  return dirty;
}

int ScoreModel::count_cache_divergences(int* first_r, int* first_c) const {
  int diverged = 0;
  for (int r = 0; r < virtual_row(); ++r) {
    for (int c = 0; c < cols(); ++c) {
      const std::size_t i = at(r, c);
      if (!cache_ok_[i]) continue;  // cold cells cannot be stale
      // Bitwise comparison, matching the zero-tolerance contract the
      // property tests hold: both sides run the same arithmetic.
      if (cache_[i] != score_cell(r, c)) {
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
  (void)cell(r, c);  // force the cell warm so the perturbation sticks
  cache_[at(r, c)] += delta;
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
  // Fold the infinity count in at a weight that dominates any finite sum
  // but still compares two rows by their finite parts when counts tie.
  return inf_count * 1e9 + finite_sum;
}

}  // namespace easched::core
