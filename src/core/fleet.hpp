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
// Two pieces live here, one per-host copy of host state and one summary
// of it:
//
//   FleetSnapshot — SoA arrays over all HostIds (row index == HostId).
//                   The ScoreModel points straight into these arrays
//                   (zero copies), derives each row's free margins from
//                   them when it prunes (free_margin()), and plans on
//                   their plan-tracked fields (reservations, counts,
//                   demand) in place, copy on touch: see "Planning".
//
//   BlockSummary  — one per kArgminBlock block of hosts, computed by the
//                   one function summarize_block() from the block's
//                   snapshot rows: the maxima of its free margins
//                   (consulted block-for-block by hill_climb's blocked
//                   argmin to skip whole blocks of hosts that cannot
//                   accept a VM) and the extrema of its placeable rows'
//                   plan-independent attributes (what the model's score
//                   floor reduces). A refresh re-summarizes each block
//                   holding a re-read host once.
//
// Planning (copy on touch). A ScoreModel's move() changes the snapshot's
// cpu_res, mem_res, running_demand and vm_count of the rows it touches
// through plan_add(), which re-summarizes the row's block. The first
// touch of a row logs the row's prior values; restore_plan() (the model's
// destructor) writes the log back in reverse and re-summarizes each
// touched block once, leaving the snapshot and the block summaries
// bitwise what they were. A model therefore costs the rows it moves, not
// the fleet. One planner per fleet: while a model has un-restored rows,
// refresh(), read_all(), a new incremental model and another model's
// move() are contract violations.
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

/// The one margin formula, shared by the block summaries (read and
/// planned rows alike) and the model's per-cell prune: a placeable host's
/// free margin is cap * kFleetOverMargin - reserved, a non-placeable
/// host's is -1 (any need exceeds it).
[[nodiscard]] inline double free_margin(bool placeable, double cap,
                                        double reserved) {
  return placeable ? cap * kFleetOverMargin - reserved : -1.0;
}

/// SoA snapshot of every host's score-relevant fields, row index == HostId.
/// Every field is written by FleetState::read_host() (and the plan-tracked
/// ones, until the planning model restores them, by
/// FleetState::plan_add()); kFleetSnapshot asserts bitwise equality
/// against a fresh re-read. An idle host (no residents, no operations)
/// has cpu_res, mem_res, vm_count, running_demand, mgmt_demand and
/// conc_remaining_s all 0: its row is its immutable spec fields and its
/// placeability.
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

/// Summary of one kArgminBlock block of snapshot rows (see the header
/// comment). Every field is a function of the block's rows alone.
struct BlockSummary {
  /// Maxima of the rows' free_margin()s, starting from -1: a VM needing
  /// more than these fits no row of the block.
  double max_free_cpu = -1.0, max_free_mem = -1.0;
  RowExtrema extrema;  ///< of the block's placeable rows
  /// Exact equality (the kFleetIndex rule compares with this).
  [[nodiscard]] bool operator==(const BlockSummary& o) const = default;
};

/// Number of kArgminBlock blocks covering `num_hosts` hosts.
[[nodiscard]] inline std::size_t num_blocks(std::size_t num_hosts) {
  const auto b = static_cast<std::size_t>(kArgminBlock);
  return (num_hosts + b - 1) / b;
}

/// The one summary formula: block `blk` of `snap`, rows in host order.
[[nodiscard]] BlockSummary summarize_block(const FleetSnapshot& snap,
                                           std::size_t blk);

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

  /// Brings the snapshot and block summaries up to date with `dc`. It
  /// re-reads the union of three sources of dirt, never the whole fleet:
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
  /// (re)initializes the snapshot and block summaries from `dc`. Leaves
  /// the Datacenter's dirty journal alone — its single consumer is the
  /// policy's incremental FleetState, which must still see every host
  /// dirtied since its last refresh. Expects planning() to be false.
  /// A reference model reads no block summary, but the summaries built
  /// here are not dead: they are the full-read oracle that refresh()'s
  /// blocks are held to bitwise (tests/test_fleet.cpp,
  /// expect_matches_full_read), so skipping them would need a mode branch.
  void read_all(const datacenter::Datacenter& dc);

  [[nodiscard]] const FleetSnapshot& snapshot() const { return snap_; }
  /// One summary per kArgminBlock block, each summarize_block() of the
  /// snapshot (of the planned rows while a model plans).
  [[nodiscard]] const std::vector<BlockSummary>& blocks() const {
    return blocks_;
  }
  /// The blocks' extrema reduced over the whole fleet, O(blocks); bitwise
  /// a scan of the placeable rows in host order.
  [[nodiscard]] RowExtrema extrema() const;
  [[nodiscard]] const RefreshStats& stats() const { return stats_; }

  /// Reads host `h`'s score-relevant fields from the Datacenter into
  /// `snap[h]`. The single read path shared by refresh(), read_all() and
  /// the kFleetSnapshot checker rule, so a clean snapshot entry is bitwise
  /// equal to a fresh full re-read.
  static void read_host(const datacenter::Datacenter& dc,
                        datacenter::HostId h, sim::SimTime now,
                        FleetSnapshot& snap);

  /// Plans a VM onto host `h` (or, with negated arguments, off it): adds
  /// `cpu` % to the snapshot's cpu_res and running_demand of `h`, `mem` MB
  /// to its mem_res and `count` to its vm_count, and re-summarizes its
  /// block. The first touch of `h` since the last restore_plan() logs its
  /// prior values. Expects `planner` to be the fleet's only planner: no
  /// other model may have un-restored rows.
  void plan_add(const ScoreModel* planner, datacenter::HostId h, double cpu,
                double mem, int count);
  /// Writes `planner`'s logged rows back in reverse order of first touch
  /// and re-summarizes their blocks (a no-op when `planner` touched
  /// nothing), and ends its planning.
  void restore_plan(const ScoreModel* planner);
  /// Whether some model has un-restored plan rows on this fleet.
  [[nodiscard]] bool planning() const { return planner_ != nullptr; }

  /// Test hooks for the kFleetSnapshot / kFleetIndex mutation tests:
  /// perturb the stored snapshot reservation of host `h`, or overwrite
  /// block `blk`'s summary.
  void debug_corrupt_snapshot(datacenter::HostId h, double delta);
  void debug_set_block(std::size_t blk, const BlockSummary& summary);

 private:
  /// Sizes the snapshot, block summaries and flags to `n` hosts, all
  /// unread.
  void reset(std::size_t n);
  /// Reads every host of dirty_scratch_, re-summarizes their blocks and
  /// rebuilds the busy set and the breaker watch list from that read.
  void read_dirty(const datacenter::Datacenter& dc);
  /// Queues host `h`'s block for summarize_marked(), once.
  void mark_block(datacenter::HostId h);
  /// Re-summarizes every queued block, once each.
  void summarize_marked();

  FleetSnapshot snap_;
  std::vector<BlockSummary> blocks_;
  std::vector<unsigned char> block_marked_;
  std::vector<std::size_t> marked_blocks_;
  std::vector<datacenter::HostId> dirty_scratch_;
  std::vector<datacenter::HostId> journal_scratch_;
  std::vector<unsigned char> dirty_flag_;
  std::vector<datacenter::HostId> busy_;  ///< ops in flight at last read
  /// Hosts whose breaker was not Healthy at the last read_dirty().
  std::vector<datacenter::HostId> veto_watch_;
  /// A plan row's values before its first touch by the planner.
  struct PlanPrior {
    datacenter::HostId h = 0;
    int vm_count = 0;
    double cpu_res = 0, mem_res = 0, running = 0;
  };
  const ScoreModel* planner_ = nullptr;  ///< model with un-restored rows
  std::vector<PlanPrior> plan_log_;      ///< first touches, in order
  std::vector<unsigned char> plan_touched_;
  RefreshStats stats_;
};

}  // namespace easched::core
