// Cross-round incremental fleet state for the scheduling core.
//
// A full read of the fleet re-queries every host from the Datacenter —
// O(M) pointer-chasing queries per round. Between rounds almost nothing
// changes: a round touches the few hosts that gained/lost a VM or an
// operation, and the rest of the fleet is byte-for-byte identical to last
// round's snapshot. FleetState exploits that: it owns a persistent SoA
// snapshot of the per-host hot fields, consumes the Datacenter's dirty
// journal (drain_fleet_dirty) each round, and re-reads *only* the dirtied
// hosts, the hosts with operations in flight and the breaker-vetoed ones
// (see refresh()) — through the one read_host() path a full read uses, so
// between score models the snapshot is bitwise equal to a fresh full read
// (the kFleetSnapshot invariant rule holds this).
//
// Two cooperating pieces live here:
//
//   FleetSnapshot   — SoA arrays over all HostIds (row index == HostId).
//                     The ScoreModel points straight into these arrays
//                     (zero copies) and plans on their plan-tracked fields
//                     (reservations, counts, demand) in place, copy on
//                     touch: see "Planning" below.
//
//   HostBucketIndex — capacity buckets over the snapshot: per-host free
//                     CPU/memory margins (conservatively widened by
//                     kFleetOverMargin, so "margin exceeded" provably
//                     implies an infinite Pres cell), per-kArgminBlock
//                     maxima of those margins (consulted block-for-block
//                     by hill_climb's blocked argmin to skip whole blocks
//                     of hosts that cannot accept a VM), and per-block
//                     extrema of the placeable rows' plan-independent
//                     attributes (what the model's score floor reduces).
//                     Updated incrementally for dirty hosts only; a
//                     planning model keeps the margins in step with its
//                     plan and leaves the extrema alone.
//
// Planning (copy on touch). A ScoreModel's move() changes the snapshot's
// cpu_res, mem_res, running_demand and vm_count of the rows it touches,
// and their index margins, through plan_add(). The first touch of a row
// logs the row's prior values; restore_plan() (the model's destructor)
// writes the log back in reverse, leaving the snapshot, the margins and
// the block maxima bitwise what they were and every read stamp unchanged.
// A model therefore costs the rows it moves, not the fleet. One planner
// per fleet: while a model has un-restored rows, refresh(), read_all(), a
// new incremental model and another model's move() are contract
// violations.
//
// FleetState stores host state only: no scores and nothing per VM. Every
// score is evaluated on read by the per-round ScoreModel.
//
// Ownership: the score-based policy owns one FleetState per policy
// instance and refreshes it at the top of every full round; the per-round
// ScoreModel borrows it (non-const, to plan on it) and must not outlive
// the round. The Datacenter only owns the journal.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/score.hpp"
#include "datacenter/ids.hpp"
#include "sim/time.hpp"
#include "workload/job.hpp"

namespace easched::datacenter {
class Datacenter;
}  // namespace easched::datacenter

namespace easched::core {

class ScoreModel;

/// Conservative over-capacity margin for the pruning margins. A host's
/// free margin is cap * kFleetOverMargin - reserved; `need > margin` then
/// safely implies p_res's exact predicate (reserved + need) / cap >
/// 1 + 1e-9 — the 1e-7 headroom dwarfs the ~1e-16 rounding of the two
/// different evaluation orders, so pruning can never skip a cell the exact
/// evaluation would have scored finite. Boundary cells (need <= margin but
/// possibly still over) are evaluated exactly.
inline constexpr double kFleetOverMargin = 1.0 + 1e-7;

/// The one margin formula, shared by the index (read and planned
/// margins alike) and the kFleetIndex checker rule: a placeable
/// host's free margin is cap * kFleetOverMargin - reserved, a
/// non-placeable host's is -1 (any need exceeds it).
[[nodiscard]] inline double free_margin(bool placeable, double cap,
                                        double reserved) {
  return placeable ? cap * kFleetOverMargin - reserved : -1.0;
}

/// SoA snapshot of every host's score-relevant fields, row index == HostId.
/// Every field is written by FleetState::read_host() (and the plan-tracked
/// ones, until the planning model restores them, by
/// FleetState::plan_add()); kFleetSnapshot asserts bitwise equality
/// against a fresh re-read.
struct FleetSnapshot {
  std::vector<unsigned char> placeable;  ///< dc.placeable(h) at refresh
  std::vector<double> cpu_cap, mem_cap;
  std::vector<double> cpu_res, mem_res;  ///< reserved CPU % / memory MB
  std::vector<int> vm_count;
  std::vector<double> running_demand;    ///< Σ running residents' demand
  std::vector<double> mgmt_demand;       ///< Σ in-flight op overhead
  std::vector<double> conc_remaining_s;  ///< Σ max(0, op.ends - now)
  std::vector<double> creation_cost, migration_cost;
  std::vector<double> reliability;
  std::vector<workload::Arch> arch;
  std::vector<std::uint32_t> software;

  [[nodiscard]] std::size_t size() const { return placeable.size(); }
  void resize(std::size_t n);
};

/// Extrema of the plan-independent per-row attributes over the placeable
/// rows of a set of hosts — what ScoreModel::score_floor() bounds each
/// term with. include() and merge() keep the first of equal values, so a
/// block-wise reduction in host order is bitwise a sequential scan.
struct RowExtrema {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  bool any_placeable = false;
  double min_cc = kInf, min_cm = kInf, min_conc = kInf, min_rel = kInf;
  double max_rel = -kInf;

  /// Folds in snapshot entry `h` when it is placeable.
  void include(const FleetSnapshot& snap, datacenter::HostId h);
  void merge(const RowExtrema& o);
  /// Exact equality (the kFleetIndex rule compares with this).
  [[nodiscard]] bool operator==(const RowExtrema& o) const = default;
};

/// Capacity-bucketed host index over the snapshot (see header comment).
/// Both structures are maintained per host: set(h, ...) and update(h, ...)
/// are O(kArgminBlock) for the block maxima.
class HostBucketIndex {
 public:
  void reset(std::size_t num_hosts);
  /// Recomputes host `h`'s margins from the snapshot entry and maintains
  /// the block maxima and the block extrema.
  void update(datacenter::HostId h, const FleetSnapshot& snap);
  /// Stores host `h`'s margins and maintains the block maxima (a planning
  /// model feeds this from its planned reservations). The block extrema
  /// are plan-independent and stay as they are.
  void set(datacenter::HostId h, double free_cpu, double free_mem);

  [[nodiscard]] std::size_t size() const { return free_cpu_.size(); }
  /// Free margin of `h` (free_margin() of its reservation); -1 when the
  /// host is not placeable, so any need > margin and it prunes away.
  [[nodiscard]] double free_cpu(datacenter::HostId h) const {
    return free_cpu_[h];
  }
  [[nodiscard]] double free_mem(datacenter::HostId h) const {
    return free_mem_[h];
  }
  [[nodiscard]] const std::vector<double>& free_cpu_all() const {
    return free_cpu_;
  }
  [[nodiscard]] const std::vector<double>& free_mem_all() const {
    return free_mem_;
  }
  /// Per-kArgminBlock maxima of the margins (what hill_climb's block skip
  /// consults through the ScoreModel).
  [[nodiscard]] const std::vector<double>& block_free_cpu() const {
    return block_free_cpu_;
  }
  [[nodiscard]] const std::vector<double>& block_free_mem() const {
    return block_free_mem_;
  }
  /// Per-kArgminBlock RowExtrema of the placeable rows.
  [[nodiscard]] const std::vector<RowExtrema>& block_extrema() const {
    return block_extrema_;
  }
  /// The block extrema reduced over the whole fleet, O(blocks).
  [[nodiscard]] RowExtrema extrema() const;

  /// Test hooks: perturb host `h`'s stored free-CPU margin without
  /// touching the blocks (a missed index update), or block `blk`'s
  /// extrema minimum creation cost (a stale block); the kFleetIndex
  /// mutation tests use these.
  void debug_corrupt(datacenter::HostId h, double delta);
  void debug_corrupt_extrema(std::size_t blk, double delta);

 private:
  void rebuild_block(int blk);

  std::vector<double> free_cpu_, free_mem_;
  std::vector<double> block_free_cpu_, block_free_mem_;
  std::vector<RowExtrema> block_extrema_;
};

class FleetState {
 public:
  struct RefreshStats {
    std::uint64_t refreshes = 0;      ///< refresh() calls
    std::uint64_t hosts_reread = 0;   ///< dirty hosts re-read, cumulative
    std::uint64_t last_reread = 0;    ///< dirty hosts re-read, last round
    /// Hosts the last round examined outside the journal: the busy set
    /// plus the breaker re-checks (a host can count twice). 0 on a round
    /// with no in-flight operations and every breaker Healthy.
    std::uint64_t last_out_of_band = 0;
  };

  /// Brings the snapshot and index up to date with `dc`. It re-reads the
  /// union of three sources of dirt, never the whole fleet:
  ///   - the Datacenter's dirty journal (every host mutation);
  ///   - the busy set: hosts whose last read saw in-flight operations,
  ///     whose remaining time ages with the clock alone;
  ///   - breaker vetoes: the hosts whose breaker is not Healthy now or was
  ///     not at the last refresh (the resilience controller's list), whose
  ///     placeability is re-checked because it can flip without any
  ///     Datacenter mutation.
  /// A clean round therefore costs O(dirty + busy + not-Healthy). First
  /// call (or a fleet-size change) initializes everything. Expects no
  /// model with un-restored plan rows (planning() is false).
  void refresh(const datacenter::Datacenter& dc);

  /// Full re-read of every host (the reference ScoreModel's snapshot):
  /// (re)initializes the snapshot and index from `dc`. Leaves the
  /// Datacenter's dirty journal alone — its single consumer is the
  /// policy's incremental FleetState, which must still see every host
  /// dirtied since its last refresh. Expects planning() to be false.
  void read_all(const datacenter::Datacenter& dc);

  [[nodiscard]] bool initialized() const { return snap_.size() > 0; }
  [[nodiscard]] const FleetSnapshot& snapshot() const { return snap_; }
  [[nodiscard]] const HostBucketIndex& index() const { return index_; }
  [[nodiscard]] const RefreshStats& stats() const { return stats_; }
  /// Stamp of host `h`'s last read (refresh, read_all or a debug
  /// mutation); strictly increasing across reads, so an unchanged stamp
  /// means snapshot entry `h` is unchanged.
  [[nodiscard]] std::uint64_t read_stamp(datacenter::HostId h) const {
    return read_stamp_[h];
  }

  /// free_margin() of snapshot entry `h`'s CPU / memory.
  [[nodiscard]] static double expected_free_cpu(const FleetSnapshot& snap,
                                                datacenter::HostId h);
  [[nodiscard]] static double expected_free_mem(const FleetSnapshot& snap,
                                                datacenter::HostId h);

  /// Reads host `h`'s score-relevant fields from the Datacenter into
  /// `snap[h]`. The single read path shared by refresh(), read_all() and
  /// the kFleetSnapshot checker rule, so a clean snapshot entry is bitwise
  /// equal to a fresh full re-read.
  static void read_host(const datacenter::Datacenter& dc,
                        datacenter::HostId h, sim::SimTime now,
                        FleetSnapshot& snap);

  /// Plans a VM onto host `h` (or, with negated arguments, off it): adds
  /// `cpu` % to the snapshot's cpu_res and running_demand of `h`, `mem` MB
  /// to its mem_res and `count` to its vm_count, and re-derives its index
  /// margins.
  /// The first touch of `h` since the last restore_plan() logs its prior
  /// values. Expects `planner` to be the fleet's only planner: no other
  /// model may have un-restored rows.
  void plan_add(const ScoreModel* planner, datacenter::HostId h, double cpu,
                double mem, int count);
  /// Writes `planner`'s logged rows back in reverse order of first touch
  /// (a no-op when `planner` touched nothing) and ends its planning.
  void restore_plan(const ScoreModel* planner);
  /// Whether some model has un-restored plan rows on this fleet.
  [[nodiscard]] bool planning() const { return planner_ != nullptr; }

  /// Test hooks for the kFleetSnapshot / kFleetIndex mutation tests:
  /// perturb the stored snapshot reservation / index margin of host `h`,
  /// or block `blk`'s extrema.
  void debug_corrupt_snapshot(datacenter::HostId h, double delta);
  void debug_corrupt_index(datacenter::HostId h, double delta);
  void debug_corrupt_extrema(std::size_t blk, double delta);

 private:
  /// Sizes the snapshot, index and dirty flags to `n` hosts, all unread.
  void reset(std::size_t n);
  /// Reads every host of dirty_scratch_ and rebuilds the busy set and the
  /// breaker watch list from that read.
  void read_dirty(const datacenter::Datacenter& dc);

  FleetSnapshot snap_;
  HostBucketIndex index_;
  std::vector<datacenter::HostId> dirty_scratch_;
  std::vector<datacenter::HostId> journal_scratch_;
  std::vector<unsigned char> dirty_flag_;
  std::vector<std::uint64_t> read_stamp_;
  std::uint64_t read_epoch_ = 0;  ///< last stamp handed out
  std::vector<datacenter::HostId> busy_;  ///< ops in flight at last read
  /// Hosts whose breaker was not Healthy at the last read_dirty().
  std::vector<datacenter::HostId> veto_watch_;
  /// A plan row's values before its first touch by the planner.
  struct PlanPrior {
    datacenter::HostId h = 0;
    int vm_count = 0;
    double cpu_res = 0, mem_res = 0, running = 0;
    double free_cpu = 0, free_mem = 0;
  };
  const ScoreModel* planner_ = nullptr;  ///< model with un-restored rows
  std::vector<PlanPrior> plan_log_;      ///< first touches, in order
  std::vector<unsigned char> plan_touched_;
  RefreshStats stats_;
};

}  // namespace easched::core
