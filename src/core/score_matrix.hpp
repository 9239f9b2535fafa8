// The (M+1) x N score matrix and its planning state (section III-A/III-B).
//
// ScoreModel snapshots the datacenter at the start of a scheduling round
// and evaluates Score(h, vm) — the summed penalties of *planning* VM `vm`
// on host `h`, given where every other VM is currently planned. The plan
// starts as the real assignment (queued VMs on the virtual host, row M) and
// is mutated by the hill-climbing solver; host bookkeeping (reserved CPU /
// memory, VM counts, running demand) tracks the plan so each score reflects
// the hypothetical final configuration, while the one-off move costs
// (Pvirt) are always charged from the VM's *original* location.
//
// Evaluation on read. A cell is the sum of the seven penalty terms of
// core/penalties.hpp, each a few flops, so cell(r, c) evaluates it when it
// is read. No score is stored: not in the model, and not in the FleetState
// across rounds. cell(r, c) is breakdown(r, c).total.
//
// Dirty contract: move(r, c) changes exactly the rows the column left and
// entered — those rows' occupation, VM count and running demand changed
// for *every* column — and the moved column itself. The moved column's
// cells on the other rows are unchanged (Pvirt and Pconc are charged from
// its original location, which never moves), and the virtual row is
// constantly kInfScore. The solver's per-column argmin relies on this.
//
// Row layout: one row per host, row index == HostId, plus the virtual host
// as the last row. Every per-row attribute aliases a FleetSnapshot (zero
// copies). The plan-tracked ones — reservations, VM counts, running
// demand — are planned in place, copy on touch: move() logs a row's prior
// values the first time it touches the row (FleetState::plan_add, which
// also re-summarizes the row's block) and the destructor writes them back
// (FleetState::restore_plan), so a model costs the rows it moves, not the
// fleet. Non-placeable hosts keep a row whose cells are constantly
// kInfScore (placeability is folded into the Preq compatibility bit), so
// they never win an argmin.
//
// Two modes share that layout and every evaluation path:
//
//   Incremental — the FleetState constructor. The snapshot is the policy's
//   cross-round FleetState, refreshed from the Datacenter's dirty journal.
//   Each row's free margins, derived from the planned snapshot row on
//   read, let the solver skip provably infeasible cells, and the fleet's
//   block summaries, which move() keeps in step with the plan, let it
//   skip whole kArgminBlock row blocks, and drop for the whole climb the
//   blocks without a placeable host (see provably_inf()/skip_block()/
//   block_live() below). Their extrema give a per-column score floor that
//   lets it retire columns whose best possible delta cannot reach the
//   pick threshold (score_floor()).
//
//   Reference — the Datacenter constructor, the executable specification
//   the incremental mode is differential-tested against. It reads every
//   host into a privately owned FleetState (FleetState::read_all, which
//   leaves the dirty journal alone), plans on it the same way and prunes
//   nothing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/fleet.hpp"
#include "core/score.hpp"
#include "datacenter/datacenter.hpp"
#include "datacenter/ids.hpp"
#include "support/contracts.hpp"

namespace easched::core {

/// Score(h, vm) split into its per-penalty terms. For a finite cell the
/// left-to-right sum req+res+virt+conc+pwr+sla+fault equals `total` exactly
/// (same accumulation order as the evaluation); an incompatible or
/// over-occupied cell short-circuits with req / res at kInfScore and
/// total == kInfScore. Terms whose use_* switch is off are 0.
struct ScoreBreakdown {
  double req = 0;
  double res = 0;
  double virt = 0;
  double conc = 0;
  double pwr = 0;
  double sla = 0;
  double fault = 0;
  double total = 0;
};

class ScoreModel {
 public:
  /// Incremental-mode snapshot: borrows `fleet` (already refresh()ed for
  /// this round against `dc`) instead of re-reading the Datacenter.
  /// Columns are built from the queued VMs plus — when `migration_enabled`
  /// — every running VM on a placeable host (they are then movable).
  /// Running VMs with an operation in flight are pinned wherever they are
  /// (the paper gives them infinite scores; we simply exclude them as
  /// columns, which is equivalent and cheaper). The model must not outlive
  /// the round — it aliases the snapshot's arrays and plans on them.
  /// Expects no other model with un-restored plan rows on `fleet`.
  ScoreModel(FleetState& fleet, const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queued,
             const ScoreParams& params, bool migration_enabled);

  /// Reference-mode snapshot of `dc`: the same columns and layout over a
  /// private full read of every host, with pruning off. Decisions (move
  /// traces, emitted actions) are identical to the incremental mode's; the
  /// fleet differential tests hold this.
  ScoreModel(const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queued,
             const ScoreParams& params, bool migration_enabled);

  ScoreModel(const ScoreModel&) = delete;
  ScoreModel& operator=(const ScoreModel&) = delete;

  /// Restores every row move() touched (FleetState::restore_plan): the
  /// snapshot and block summaries are then bitwise what they were before
  /// the model.
  ~ScoreModel();

  /// hosts + 1 (virtual host, last row)
  [[nodiscard]] int rows() const { return nrows_ + 1; }
  [[nodiscard]] int cols() const { return static_cast<int>(vms_.size()); }
  [[nodiscard]] int virtual_row() const { return rows() - 1; }
  [[nodiscard]] bool reference() const { return owned_fleet_ != nullptr; }

  /// Score(h, vm) for the current plan, evaluated on read:
  /// breakdown(r, c).total. The virtual row is kInfScore.
  [[nodiscard]] double cell(int r, int c) const {
    return breakdown(r, c).total;
  }

  /// Per-penalty decomposition of Score(r, c) under the current plan —
  /// the one evaluator, and the score-attribution payload of kDecision
  /// trace events.
  [[nodiscard]] ScoreBreakdown breakdown(int r, int c) const;

  /// Everything of real row `r`'s snapshot entry that its cells read,
  /// as bit patterns, for a placeable idle row: cpu_cap, mem_cap,
  /// creation_cost, migration_cost, reliability, arch and software. While
  /// the plan is the snapshot's (no move() yet), such a row has no column
  /// planned or at home on it, and its reservations, VM count, running
  /// and management demand and remaining operation time are zero — the
  /// EA_EXPECTS hold this. Its cells, and so row_aggregate(r), are then a
  /// function of this key, the columns and the fixed params alone: two
  /// rows with equal keys aggregate equally in one model. The power-off
  /// ranking computes one aggregate per distinct key.
  using IdleRowKey = std::array<std::uint64_t, 7>;
  [[nodiscard]] IdleRowKey idle_row_key(int r) const;

  /// Row where column `c` is currently planned.
  [[nodiscard]] int plan_row(int c) const { return col(c).planned; }
  /// Row where column `c` started (virtual row for queued VMs).
  [[nodiscard]] int original_row(int c) const { return col(c).original; }
  /// Whether the solver may move column `c` (queued VMs always; running
  /// VMs only when migration is enabled).
  [[nodiscard]] bool movable(int c) const { return col(c).can_move; }

  /// Conservative infeasibility test for cell (r, c), O(1), no evaluation:
  /// true only when Score(r, c) is *provably* kInfScore under the current
  /// plan — incompatible hardware/software, a non-placeable row, or a VM
  /// demand exceeding the row's conservatively-widened free margin
  /// (free_margin() of the planned row; see kFleetOverMargin). Never true
  /// for the column's planned row. Always false in reference mode (the
  /// spec stays simple). The solver may skip a provably-inf cell: its
  /// delta against any keep score is >= 0, so it can never be selected by
  /// the argmin. Inline: it is the climb's hottest check.
  [[nodiscard]] bool provably_inf(int r, int c) const {
    if (reference()) return false;
    const VmCol& v = vms_[static_cast<std::size_t>(c)];
    if (v.planned == r) return false;  // need is 0; the keep cell may be finite
    if (placeable_[r] == 0) return true;  // compat folds placeability
    if (arch_[r] != v.arch || (software_[r] & v.software) != v.software) {
      return true;
    }
    return v.cpu > free_margin(true, cap_cpu_[r], cpu_res_[r]) ||
           v.mem > free_margin(true, cap_mem_[r], mem_res_[r]);
  }

  /// Whether kArgminBlock block `blk` holds a placeable host, i.e. a row
  /// whose cells can be finite (the block summary's any_placeable).
  /// Placeability is fixed while the model lives, so this does not depend
  /// on the plan; a dead block's cells are kInfScore under every plan, and
  /// no column starts there but at the virtual row (running VMs are
  /// columns only on placeable hosts). False for a tail block that holds
  /// only the virtual row; true for every block in reference mode.
  [[nodiscard]] bool block_live(int blk) const;

  /// Block-level variant: true when *every* host row of kArgminBlock block
  /// `blk` is provably infeasible for column `c` (the block summary's
  /// maximum free margin cannot fit the VM). The solver then skips the
  /// whole block. False in reference mode. Expects a block holding a real
  /// host: a tail block of the virtual row alone is dead (block_live()).
  [[nodiscard]] bool skip_block(int c, int blk) const;

  /// Conservative score floor of column `c`: a lower bound on cell(r, c)
  /// over every real row r != plan_row(c), under *any* plan of the other
  /// columns. Each term is bounded from fleet-wide extrema of the
  /// placeable rows (Pres = 0; Pvirt >= p_migration(min Cm, Tr) or min Cc;
  /// Pconc >= min conc; Ppwr >= min(0, Ce) - (1+1e-9)*Cf; PSLA >=
  /// min(0, Csla); Pfault at the fleet's min or max reliability; the home
  /// row, once the column left it, has Pvirt = Pconc = 0), and the bounds
  /// are summed in the evaluation's order — rounded addition and
  /// multiplication are monotone, so the floor never exceeds a cell. It
  /// changes only when column `c` itself moves. The extrema are reduced
  /// from the fleet's block summaries (FleetState::extrema(), O(blocks))
  /// once per model, on the first call. -infinity in reference mode and
  /// for a negative Cf (the spec prunes nothing).
  [[nodiscard]] double score_floor(int c) const;

  /// Applies a plan move of column `c` to row `r` and returns the dirty
  /// region: every cell of column `c`, plus every cell of the rows the VM
  /// left and entered (their occupation changed for all other columns).
  /// Moving to the virtual row (allowed only for undo by the exhaustive
  /// reference solver) releases the column's reservations. Re-summarizes
  /// the touched rows' blocks.
  struct Dirty {
    int col = -1;
    int row_a = -1;  ///< previous row (-1 if it was the virtual row)
    int row_b = -1;  ///< new row (-1 if the virtual row)
  };
  Dirty move(int r, int c);

  /// Mapping back to datacenter ids.
  [[nodiscard]] datacenter::VmId vm_at(int c) const { return col(c).id; }
  [[nodiscard]] datacenter::HostId host_at(int r) const {
    EA_EXPECTS(r >= 0 && r < virtual_row());
    return static_cast<datacenter::HostId>(r);
  }
  /// Whether real row `r`'s host was placeable at snapshot time (a
  /// non-placeable row is constantly kInfScore).
  [[nodiscard]] bool placeable(int r) const {
    EA_EXPECTS(r >= 0 && r < virtual_row());
    return placeable_[r] != 0;
  }

  /// Aggregated row score (used to rank idle hosts for power-off,
  /// section III-C): sum of the finite scores plus 1e9 per infinite one,
  /// folded into one comparable number.
  [[nodiscard]] double row_aggregate(int r) const;

 private:
  struct VmCol {
    datacenter::VmId id = 0;
    double cpu = 0, mem = 0;
    bool is_new = false;
    bool can_move = false;
    int original = -1;  ///< row index; virtual row for queued
    int planned = -1;
    double elapsed_s = 0;        ///< now - submit
    double remaining_user_s = 0; ///< Tr = Tu - elapsed (may be < 0)
    double remaining_work_s = 0; ///< actual work left (SLA projection)
    double deadline_s = 0;
    double fault_tolerance = 0;
    workload::Arch arch{};
    std::uint32_t software = 0;
  };
  void init(const datacenter::Datacenter& dc,
            const std::vector<datacenter::VmId>& queued,
            bool migration_enabled);
  static void fill_column_common(VmCol& c, const datacenter::Vm& vm,
                                 bool is_new, sim::SimTime now);
  const VmCol& col(int c) const {
    EA_EXPECTS(c >= 0 && c < cols());
    return vms_[static_cast<std::size_t>(c)];
  }
  const RowExtrema& row_extrema() const;

  ScoreParams params_;
  std::unique_ptr<FleetState> owned_fleet_;  ///< reference mode only
  FleetState* fleet_ = nullptr;  ///< snapshot source, planned on in place
  int nrows_ = 0;  ///< real host rows (excl. the virtual row)

  // Per-row attributes, SoA. Raw aliases into the FleetSnapshot (zero
  // copies), bound once in init(). The vectors never reallocate while the
  // model lives, so the pointers stay valid.
  const unsigned char* placeable_ = nullptr;
  const double* cap_cpu_ = nullptr;
  const double* cap_mem_ = nullptr;
  const double* mgmt_ = nullptr;
  const double* conc_ = nullptr;
  const double* cost_create_ = nullptr;
  const double* cost_migrate_ = nullptr;
  const double* reliability_ = nullptr;
  const workload::Arch* arch_ = nullptr;
  const std::uint32_t* software_ = nullptr;

  // Plan-tracked per-row state: move() changes it through
  // FleetState::plan_add, the destructor restores it.
  const double* cpu_res_ = nullptr;
  const double* mem_res_ = nullptr;
  const double* running_ = nullptr;
  const int* vm_count_ = nullptr;

  std::vector<VmCol> vms_;

  /// Filled on the first score_floor() call; a power-off ranking model,
  /// which never climbs, never pays for it.
  mutable std::optional<RowExtrema> extrema_;
};

}  // namespace easched::core
