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
// is read; the model keeps no per-cell state. The one private evaluator
// behind cell() and breakdown() returns the per-term ScoreBreakdown.
//
// Dirty contract: move(r, c) changes exactly the rows the column left and
// entered — those rows' occupation, VM count and running demand changed
// for *every* column — and the moved column itself. The moved column's
// cells on the other rows are unchanged (Pvirt and Pconc are charged from
// its original location, which never moves), and the virtual row is
// constantly kInfScore. The solver's per-column argmin relies on this.
//
// Persisted-column contract (incremental mode): the only stored scores are
// the cross-round FleetColCache columns of queued VMs. A persisted cell
// (h, vm) was evaluated against snapshot entry h, and FleetState::refresh
// invalidates it whenever h is re-read, so on a row the plan has not
// touched (no move() into or out of it yet) it equals a fresh evaluation.
// Rows the plan touched bypass the column. The kScoreCache invariant rule
// (count_cache_divergences()) and tests/test_score_cache.cpp hold this to
// zero-tolerance equality.
//
// Row layout: one row per host, row index == HostId, plus the virtual host
// as the last row. The immutable per-row attributes alias a FleetSnapshot
// (zero copies); only the plan-tracked per-row arrays are copied per
// round. Non-placeable hosts keep a row whose cells are constantly
// kInfScore (placeability is folded into the Preq compatibility bit), so
// they never win an argmin.
//
// Two modes share that layout and every evaluation path:
//
//   Incremental — the FleetState constructor. The snapshot is the policy's
//   cross-round FleetState, refreshed from the Datacenter's dirty journal.
//   The model keeps plan-tracked free-capacity margins (a copy of the
//   HostBucketIndex, kept in step with the plan) that let the solver skip
//   provably infeasible cells and whole kArgminBlock row blocks, and it
//   carries queued VMs' evaluated score columns across rounds through
//   FleetColCache (only when their scores are round-time-independent,
//   i.e. !use_sla; see provably_inf()/skip_block()/cell() below).
//
//   Reference — the Datacenter constructor, the executable specification
//   the incremental mode is differential-tested against. It reads every
//   host into a privately owned FleetState (FleetState::read_all, which
//   leaves the dirty journal alone), prunes nothing and persists nothing.
#pragma once

#include <memory>
#include <vector>

#include "core/fleet.hpp"
#include "core/score.hpp"
#include "datacenter/datacenter.hpp"
#include "datacenter/ids.hpp"

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
  /// the round — it aliases the snapshot's arrays and writes evaluated
  /// queued-VM cells through into the fleet's persistent columns.
  ScoreModel(FleetState& fleet, const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queued,
             const ScoreParams& params, bool migration_enabled);

  /// Reference-mode snapshot of `dc`: the same columns and layout over a
  /// private full read of every host, with pruning and persistent columns
  /// off. Decisions (move traces, emitted actions) are identical to the
  /// incremental mode's; the fleet differential tests hold this.
  ScoreModel(const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queued,
             const ScoreParams& params, bool migration_enabled);

  ScoreModel(const ScoreModel&) = delete;
  ScoreModel& operator=(const ScoreModel&) = delete;

  /// Returns the per-row plan buffers and margins to the FleetState's
  /// ModelScratch so the next round reuses their capacity instead of
  /// re-allocating.
  ~ScoreModel();

  [[nodiscard]] int rows() const;  ///< hosts + 1 (virtual host, last row)
  [[nodiscard]] int cols() const;
  [[nodiscard]] int virtual_row() const { return rows() - 1; }
  [[nodiscard]] bool reference() const { return owned_fleet_ != nullptr; }

  /// Score(h, vm) for the current plan, evaluated on read. The virtual
  /// row is kInfScore. In incremental mode a queued VM's cells read from /
  /// write through to its persistent cross-round column while the row's
  /// plan is untouched.
  [[nodiscard]] double cell(int r, int c) const;

  /// Per-penalty decomposition of Score(r, c) under the current plan,
  /// freshly evaluated — the score-attribution payload of kDecision trace
  /// events. Same evaluator as cell(), so breakdown(r, c).total ==
  /// cell(r, c) exactly.
  [[nodiscard]] ScoreBreakdown breakdown(int r, int c) const;

  /// Row where column `c` is currently planned.
  [[nodiscard]] int plan_row(int c) const;
  /// Row where column `c` started (virtual row for queued VMs).
  [[nodiscard]] int original_row(int c) const;
  /// Whether the solver may move column `c` (queued VMs always; running
  /// VMs only when migration is enabled).
  [[nodiscard]] bool movable(int c) const;

  /// Conservative infeasibility test for cell (r, c), O(1), no evaluation:
  /// true only when Score(r, c) is *provably* kInfScore under the current
  /// plan — incompatible hardware/software, a non-placeable row, or a VM
  /// demand exceeding the row's conservatively-widened free margin (see
  /// kFleetOverMargin). Never true for the column's planned row. Always
  /// false in reference mode (the spec stays simple). The solver may skip
  /// a provably-inf cell: its delta against any keep score is >= 0, so it
  /// can never be selected by the argmin.
  [[nodiscard]] bool provably_inf(int r, int c) const;

  /// Block-level variant: true when *every* host row of kArgminBlock block
  /// `blk` is provably infeasible for column `c` (the block's maximum free
  /// margin cannot fit the VM). The solver then skips the whole block.
  /// False in reference mode and for any block index outside the real-host
  /// range (the virtual row's tail block is never skippable).
  [[nodiscard]] bool skip_block(int c, int blk) const;

  /// Applies a plan move of column `c` to row `r` and returns the dirty
  /// region: every cell of column `c`, plus every cell of the rows the VM
  /// left and entered (their occupation changed for all other columns).
  /// Moving to the virtual row (allowed only for undo by the exhaustive
  /// reference solver) releases the column's reservations. Updates the
  /// touched rows' pruning margins and marks them plan-touched (their
  /// cells stop flowing through the persistent columns).
  struct Dirty {
    int col = -1;
    int row_a = -1;  ///< previous row (-1 if it was the virtual row)
    int row_b = -1;  ///< new row (-1 if the virtual row)
  };
  Dirty move(int r, int c);

  /// Mapping back to datacenter ids.
  [[nodiscard]] datacenter::VmId vm_at(int c) const;
  [[nodiscard]] datacenter::HostId host_at(int r) const;
  /// Whether real row `r`'s host was placeable at snapshot time (a
  /// non-placeable row is constantly kInfScore).
  [[nodiscard]] bool placeable(int r) const;

  /// Aggregated row score (used to rank idle hosts for power-off,
  /// section III-C): sum of the finite scores plus 1e9 per infinite one,
  /// folded into one comparable number.
  [[nodiscard]] double row_aggregate(int r) const;

  /// Replaces `out` with a bitwise encoding of every column
  /// field a cell reads. With the fixed params, real row `r`'s cells — and
  /// so row_aggregate(r) — are a function of snapshot entry `r` and this
  /// key alone while the plan is the snapshot's (no move() yet): equal
  /// keys and an unchanged FleetState::read_stamp(r) mean an equal
  /// aggregate. The power-off ranking memo relies on this.
  void column_key(std::vector<std::uint64_t>& out) const;

  /// Compares every valid persisted cell on a plan-untouched row against
  /// a fresh evaluation, bitwise, and returns how many diverge; the
  /// coordinates of the first divergence land in `first_r`/`first_c`
  /// (optional). Nothing else is stored, so nothing else can be stale.
  /// This is the kScoreCache invariant rule
  /// (validate/invariant_checker.hpp); it reads and writes nothing.
  [[nodiscard]] int count_cache_divergences(int* first_r = nullptr,
                                            int* first_c = nullptr) const;

  /// Test hook for the validator's mutation tests: persists cell (r, c)
  /// and then perturbs the persisted value by `delta`, simulating a missed
  /// invalidation. Requires a plan-untouched real row and a column with a
  /// persistent cross-round column.
  void debug_corrupt_cache(int r, int c, double delta);

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
    /// Cross-round persistent column (incremental mode, queued VMs whose
    /// score is round-time-independent); null otherwise. Not owned — lives in
    /// the FleetState, node-stable for the model's lifetime.
    FleetColCache* persist = nullptr;
  };
  void init(const datacenter::Datacenter& dc,
            const std::vector<datacenter::VmId>& queued,
            bool migration_enabled);
  static void fill_column_common(VmCol& c, const datacenter::Vm& vm,
                                 bool is_new, sim::SimTime now);
  /// The one evaluator: Score(r, c) of real row `r` under the current
  /// plan, term by term.
  [[nodiscard]] ScoreBreakdown evaluate(int r, int c) const;
  void touch_row(int r);  ///< margins + plan_touched

  ScoreParams params_;
  std::unique_ptr<FleetState> owned_fleet_;  ///< reference mode only
  FleetState* fleet_ = nullptr;  ///< snapshot source and buffer return target
  int nrows_ = 0;  ///< real host rows (excl. the virtual row)

  // Immutable per-row attributes, SoA. Raw aliases into the FleetSnapshot
  // (zero copies), bound once in init().
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

  // Plan-tracked per-row state, owned and mutated by move().
  std::vector<double> cpu_res_, mem_res_, running_;
  std::vector<int> vm_count_;

  // Plan-tracked pruning margins (a copy of the fleet's HostBucketIndex,
  // maintained by move()) and the plan-touched rows (their cells no longer
  // flow through the persistent columns).
  HostBucketIndex margins_;
  std::vector<unsigned char> plan_touched_;

  std::vector<VmCol> vms_;
};

}  // namespace easched::core
