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
// Incremental evaluation. Score(h, vm) splits into a plan-independent part
// — Preq compatibility, Pvirt (charged from the original location), Pconc
// (the snapshot's in-flight operations) and Pfault — computed once per
// (host, vm) pair, and a plan-dependent part (Pres, Ppwr, PSLA) evaluated
// against the current plan. Evaluated cells are cached.
//
// Cache-invalidation contract: move(r, c) dirties exactly the rows the
// column left and entered — those rows' occupation, VM count and running
// demand changed for *every* column — and nothing else. The moved column's
// cells on untouched rows are unchanged (its static terms are charged from
// its original location, which never moves), and the virtual row is
// constantly kInfScore. tests/test_score_cache.cpp holds this contract to
// zero-tolerance equality against fresh recomputation.
//
// Row layout: one row per host, row index == HostId, plus the virtual host
// as the last row. The immutable per-row attributes alias a FleetSnapshot
// (zero copies); only the four plan-tracked arrays are copied per round,
// and the plan-independent terms are built lazily per cell. Non-placeable
// hosts keep a row whose cells are constantly kInfScore (placeability is
// folded into the Preq compatibility bit), so they never win an argmin.
//
// Two modes share that layout and every evaluation path:
//
//   Incremental — the FleetState constructor. The snapshot is the policy's
//   cross-round FleetState, refreshed from the Datacenter's dirty journal.
//   The model keeps plan-tracked free-capacity margins (seeded from the
//   HostBucketIndex) that let the solver skip provably infeasible cells
//   and whole kArgminBlock row blocks, and it carries queued VMs'
//   evaluated score columns across rounds through FleetColCache (only when
//   their scores are round-time-independent, i.e. !use_sla; see
//   provably_inf()/skip_block()/cell() below).
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
#include "obs/profiler.hpp"

namespace easched::core {

class SolverPool;

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
  ///
  /// `pool` (optional, not owned) parallelizes the reference mode's prime()
  /// over row ranges; results are bit-identical to the serial build.
  ScoreModel(FleetState& fleet, const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queued,
             const ScoreParams& params, bool migration_enabled,
             SolverPool* pool = nullptr);

  /// Reference-mode snapshot of `dc`: the same columns and layout over a
  /// private full read of every host, with pruning and persistent columns
  /// off. Decisions (move traces, emitted actions) are identical to the
  /// incremental mode's; the fleet differential tests hold this.
  ScoreModel(const datacenter::Datacenter& dc,
             const std::vector<datacenter::VmId>& queued,
             const ScoreParams& params, bool migration_enabled,
             SolverPool* pool = nullptr);

  ScoreModel(const ScoreModel&) = delete;
  ScoreModel& operator=(const ScoreModel&) = delete;

  /// Returns the big per-round buffers (cache, static terms, plan vectors,
  /// margins) to the FleetState's ModelScratch so the next round reuses
  /// their capacity instead of re-allocating.
  ~ScoreModel();

  [[nodiscard]] int rows() const;  ///< hosts + 1 (virtual host, last row)
  [[nodiscard]] int cols() const;
  [[nodiscard]] int virtual_row() const { return rows() - 1; }
  [[nodiscard]] bool reference() const { return owned_fleet_ != nullptr; }

  /// Score(h, vm) for the current plan. The virtual row is kInfScore.
  /// Cached: repeated calls between moves are O(1); a move re-evaluates
  /// only cells of the two touched rows on their next read. In incremental
  /// mode a queued VM's cells additionally read from / write through to its
  /// persistent cross-round column while the row's plan is untouched.
  [[nodiscard]] double cell(int r, int c) const;

  /// Recomputes Score(r, c) from the bookkeeping, bypassing (and not
  /// updating) the cache. Same arithmetic as cell(); exposed so the
  /// property tests can assert cache/fresh equality at zero tolerance.
  [[nodiscard]] double recompute_cell(int r, int c) const;

  /// Per-penalty decomposition of Score(r, c) under the current plan —
  /// the score-attribution payload of kDecision trace events. Mirrors
  /// score_cell() term for term; breakdown(r, c).total == cell(r, c)
  /// exactly (the obs tests hold this).
  [[nodiscard]] ScoreBreakdown breakdown(int r, int c) const;

  /// Attaches a phase profiler (not owned; may be null) so move()'s
  /// dirty-row invalidations are timed under Phase::kInvalidate.
  void set_profiler(obs::PhaseProfiler* profiler) noexcept {
    profiler_ = profiler;
  }

  /// Reference mode: evaluates every cell into the cache, partitioned by
  /// rows over the pool when one was supplied (the "initial matrix build"
  /// sweep). A serial call is equivalent; lazy per-cell fills are too.
  /// Incremental mode makes this a no-op: eagerly sweeping all M x N cells
  /// is exactly the cost the incremental path exists to avoid, and the
  /// solver's blocked argmin warms what it reads.
  void prime();

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
  /// reference solver) releases the column's reservations. Invalidates the
  /// cached cells of the dirty rows, updates the touched rows' pruning
  /// margins and marks them plan-touched (their cells stop flowing through
  /// the persistent columns).
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
  /// section III-C): sum of the finite scores plus kInfScore-weighted count
  /// of infinite ones, folded into one comparable number.
  [[nodiscard]] double row_aggregate(int r) const;

  /// Compares every *warmed* cached cell against a fresh recomputation and
  /// returns how many diverge; the coordinates of the first divergence land
  /// in `first_r`/`first_c` (optional). Cold cells are skipped — only
  /// memoized values can be stale — so the scan costs one recompute per
  /// warm cell and nothing touches the cache. This is the kScoreCache
  /// invariant rule (validate/invariant_checker.hpp). In incremental mode
  /// it also covers the persistent columns: a stale persisted value is loaded
  /// into the cache on first read and then diverges from the fresh
  /// recomputation like any other corruption.
  [[nodiscard]] int count_cache_divergences(int* first_r = nullptr,
                                            int* first_c = nullptr) const;

  /// Test hook for the validator's mutation tests: forces cell (r, c) into
  /// the cache and then perturbs the cached value by `delta`, simulating a
  /// missed invalidation. Requires a real row and a valid column.
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
  /// Plan-independent penalty terms of one (host, vm) pair, fixed at
  /// snapshot time: Preq compatibility (placeability folded in), Pvirt
  /// (incl. the Pm migration term), Pconc and Pfault. The plan-dependent
  /// remainder (Pres, Ppwr, PSLA) is evaluated by score_cell(). Shared
  /// with fleet.hpp's ModelScratch so the backing array can be recycled
  /// across rounds.
  using StaticTerms = CellStaticTerms;
  [[nodiscard]] std::size_t at(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(vms_.size()) +
           static_cast<std::size_t>(c);
  }
  void init(const datacenter::Datacenter& dc,
            const std::vector<datacenter::VmId>& queued,
            bool migration_enabled);
  static void fill_column_common(VmCol& c, const datacenter::Vm& vm,
                                 bool is_new, sim::SimTime now);
  void build_static_cell(int r, int c) const;
  [[nodiscard]] const StaticTerms& ensure_static(int r, int c) const {
    const std::size_t i = at(r, c);
    if (!static_ok_[i]) {
      build_static_cell(r, c);
      static_ok_[i] = 1;
    }
    return static_terms_[i];
  }
  [[nodiscard]] double score_cell(int r, int c) const;
  void invalidate_row(int r);
  void touch_row(int r);          ///< margins + plan_touched
  void rebuild_margin_block(int blk);

  ScoreParams params_;
  obs::PhaseProfiler* profiler_ = nullptr;  ///< not owned; may be null
  SolverPool* pool_ = nullptr;              ///< not owned; may be null
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

  // Plan-tracked pruning margins (seeded from the HostBucketIndex,
  // maintained by move()) and the plan-touched rows (their cells no longer
  // flow through the persistent columns).
  std::vector<double> free_cpu_, free_mem_;
  std::vector<double> block_free_cpu_, block_free_mem_;
  std::vector<unsigned char> plan_touched_;

  std::vector<VmCol> vms_;
  // Plan-independent terms, built lazily per cell (most cells of a pruned
  // matrix are never read).
  // `mutable`: ensure_static() memoizes from const queries. Race-free for
  // the same reason the score cache is: threaded sweeps only touch
  // disjoint row (prime) or column (argmin) ranges.
  mutable std::vector<StaticTerms> static_terms_;
  mutable std::vector<unsigned char> static_ok_;
  // Per-cell score cache over the real rows. `mutable`: cell() is a const
  // query that memoizes.
  mutable std::vector<double> cache_;
  mutable std::vector<unsigned char> cache_ok_;
};

}  // namespace easched::core
