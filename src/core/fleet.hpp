// Cross-round incremental fleet state for the scheduling core.
//
// A full read of the fleet re-queries every host from the Datacenter —
// O(M) pointer-chasing queries per round. Between rounds almost nothing
// changes: a round touches the few hosts that gained/lost a VM or an
// operation, and the rest of the fleet is byte-for-byte identical to last
// round's snapshot. FleetState exploits that: it owns a persistent SoA
// snapshot of the per-host hot fields, consumes the Datacenter's dirty
// journal (drain_fleet_dirty) each round, and re-reads *only* the dirtied
// hosts — through the one read_host() path a full read uses, so the
// snapshot is bitwise equal to a fresh full read at all times (the
// kFleetSnapshot invariant rule holds this).
//
// Three cooperating pieces live here:
//
//   FleetSnapshot   — SoA arrays over all HostIds (row index == HostId).
//                     The ScoreModel points straight into these
//                     arrays for its immutable row attributes; only the
//                     plan-tracked fields (reservations, counts, demand)
//                     are copied per round.
//
//   HostBucketIndex — capacity buckets over the snapshot: per-host free
//                     CPU/memory margins (conservatively widened by
//                     kFleetOverMargin, so "margin exceeded" provably
//                     implies an infinite Pres cell), per-kArgminBlock
//                     maxima of those margins (consulted block-for-block
//                     by hill_climb's blocked argmin to skip whole blocks
//                     of hosts that cannot accept a VM), and a free-CPU
//                     band histogram for O(1) candidate-count estimates.
//                     Updated incrementally for dirty hosts only.
//
//   FleetColCache   — persistent per-VM score columns. A queued VM that
//                     stays queued across rounds keeps its evaluated
//                     Score(h, vm) cells: a cell only changes when its
//                     host is dirtied, so clean cells are carried over and
//                     the next round's argmin starts warm. (Only columns
//                     whose score is round-time-independent are persisted;
//                     see ScoreModel.)
//
// Ownership: the score-based policy owns one FleetState per policy
// instance and refreshes it at the top of every full round; the per-round
// ScoreModel borrows it (non-const, for cache write-through) and must not
// outlive the round. The Datacenter only owns the journal.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/score.hpp"
#include "datacenter/ids.hpp"
#include "sim/time.hpp"
#include "workload/job.hpp"

namespace easched::datacenter {
class Datacenter;
}  // namespace easched::datacenter

namespace easched::core {

/// Conservative over-capacity margin for the pruning margins. A host's
/// free margin is cap * kFleetOverMargin - reserved; `need > margin` then
/// safely implies p_res's exact predicate (reserved + need) / cap >
/// 1 + 1e-9 — the 1e-7 headroom dwarfs the ~1e-16 rounding of the two
/// different evaluation orders, so pruning can never skip a cell the exact
/// evaluation would have scored finite. Boundary cells (need <= margin but
/// possibly still over) are evaluated exactly.
inline constexpr double kFleetOverMargin = 1.0 + 1e-7;

/// SoA snapshot of every host's score-relevant fields, row index == HostId.
/// Every field is written by FleetState::read_host(); kFleetSnapshot
/// asserts bitwise equality against a fresh re-read.
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

/// Capacity-bucketed host index over the snapshot (see header comment).
/// All three structures are maintained per-host: update(h, ...) is O(block)
/// for the block maxima and O(1) for the histogram.
class HostBucketIndex {
 public:
  /// Free-CPU band width / count for the candidate histogram. 64 bands of
  /// 25 CPU-% cover margins up to 1600 % (a 16-way machine); anything
  /// larger saturates into the top band, which only ever *over*-counts
  /// candidates (the histogram is advisory, never used for pruning).
  static constexpr double kBandWidthPct = 25.0;
  static constexpr int kBands = 64;

  void reset(std::size_t num_hosts);
  /// Recomputes host `h`'s margins from the snapshot entry and maintains
  /// the block maxima and the band histogram.
  void update(datacenter::HostId h, const FleetSnapshot& snap);

  [[nodiscard]] std::size_t size() const { return free_cpu_.size(); }
  /// Free margin of `h` (cap * kFleetOverMargin - reserved); -1 when the
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

  /// Band of a free-CPU margin (-1 for unplaceable margins).
  [[nodiscard]] static int band_of(double free_cpu_pct);
  [[nodiscard]] int band_count(int band) const { return band_count_[band]; }
  /// Upper bound on the number of hosts whose free CPU could fit
  /// `cpu_need_pct` (counts every band at or above the need's band, so the
  /// boundary band over-counts — a conservative candidate estimate).
  [[nodiscard]] int candidate_upper_bound(double cpu_need_pct) const;

  /// Test hook: perturbs host `h`'s stored free-CPU margin without
  /// touching blocks or bands, simulating a missed index update (the
  /// kFleetIndex mutation tests use this).
  void debug_corrupt(datacenter::HostId h, double delta);

 private:
  void rebuild_block(int blk);

  std::vector<double> free_cpu_, free_mem_;
  std::vector<double> block_free_cpu_, block_free_mem_;
  std::vector<int> band_count_;    ///< histogram over free-CPU bands
  std::vector<std::int8_t> band_of_host_;  ///< -1: not counted
};

/// Persistent score column of one queued VM: Score(h, vm) per HostId plus
/// a per-cell validity flag. Cells are invalidated when their host is
/// dirtied and the whole column is dropped when the VM leaves the queue.
struct FleetColCache {
  std::vector<double> by_host;
  std::vector<unsigned char> ok;
};

/// Plan-independent penalty terms of one (host, vm) cell, fixed at
/// snapshot time (see ScoreModel: Preq compatibility with placeability
/// folded in, Pvirt, Pconc, Pfault). Defined here so the fleet scratch
/// below can own the backing array across rounds.
struct CellStaticTerms {
  double virt = 0;
  double conc = 0;
  double fault = 0;
  bool compat = false;
};

/// Round-to-round reusable backing buffers for the ScoreModel.
/// The per-round matrices are M x N — multiple MB at fleet scale — and a
/// fresh allocate-and-zero every round costs a measurable slice of the
/// incremental round budget. The model takes these buffers in its
/// constructor and returns them in its destructor; stale contents are
/// never read because validity is tracked by the _ok bitmaps (re-zeroed
/// each round) and the plan vectors are overwritten wholesale.
struct ModelScratch {
  std::vector<double> cpu_res, mem_res, running;
  std::vector<int> vm_count;
  std::vector<double> free_cpu, free_mem, block_free_cpu, block_free_mem;
  std::vector<unsigned char> plan_touched;
  std::vector<CellStaticTerms> static_terms;
  std::vector<unsigned char> static_ok;
  std::vector<double> cache;
  std::vector<unsigned char> cache_ok;
};

class FleetState {
 public:
  struct RefreshStats {
    std::uint64_t refreshes = 0;      ///< refresh() calls
    std::uint64_t hosts_reread = 0;   ///< dirty hosts re-read, cumulative
    std::uint64_t last_reread = 0;    ///< dirty hosts re-read, last round
    std::uint64_t cols_dropped = 0;   ///< persistent columns pruned
  };

  /// Brings the snapshot and index up to date with `dc`: drains the dirty
  /// journal, re-scans placeability (circuit breakers can flip it without
  /// any Datacenter mutation), force-rereads hosts with time-dependent
  /// state (in-flight operations age with the clock), and prunes the
  /// persistent columns down to `queued`. First call (or a fleet-size
  /// change) initializes everything.
  void refresh(const datacenter::Datacenter& dc,
               const std::vector<datacenter::VmId>& queued);

  /// Full re-read of every host (the reference ScoreModel's snapshot):
  /// (re)initializes the snapshot and index from `dc` and drops every
  /// persistent column. Leaves the Datacenter's dirty journal alone — its
  /// single consumer is the policy's incremental FleetState, which must
  /// still see every host dirtied since its last refresh.
  void read_all(const datacenter::Datacenter& dc);

  [[nodiscard]] bool initialized() const { return snap_.size() > 0; }
  [[nodiscard]] const FleetSnapshot& snapshot() const { return snap_; }
  [[nodiscard]] const HostBucketIndex& index() const { return index_; }
  [[nodiscard]] const RefreshStats& stats() const { return stats_; }

  /// The persistent score column for VM `v`, created (sized to
  /// `num_hosts`, all cells invalid) on first request. The pointer stays
  /// valid until the VM leaves the queue (node-stable map).
  [[nodiscard]] FleetColCache* col_cache(datacenter::VmId v,
                                         std::size_t num_hosts);
  [[nodiscard]] std::size_t col_cache_count() const { return cols_.size(); }

  /// The expected free margin for snapshot entry `h` — the single formula
  /// shared by the index, the ScoreModel's plan-tracked margins and the
  /// kFleetIndex checker rule.
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

  /// Test hooks for the kFleetSnapshot / kFleetIndex mutation tests:
  /// perturb the stored snapshot reservation / index margin of host `h`.
  void debug_corrupt_snapshot(datacenter::HostId h, double delta);
  void debug_corrupt_index(datacenter::HostId h, double delta);

  /// The reusable model buffers. The per-round ScoreModel move()s them out
  /// in its constructor and back in its destructor; between models the
  /// vectors here hold the retained capacity (contents meaningless).
  [[nodiscard]] ModelScratch& model_scratch() { return scratch_; }

 private:
  /// Sizes the snapshot, index and dirty flags to `n` hosts, all unread,
  /// and drops every persistent column.
  void reset(std::size_t n);

  FleetSnapshot snap_;
  HostBucketIndex index_;
  std::unordered_map<datacenter::VmId, FleetColCache> cols_;
  std::vector<datacenter::HostId> dirty_scratch_;
  std::vector<datacenter::HostId> journal_scratch_;
  std::vector<unsigned char> dirty_flag_;
  std::vector<datacenter::VmId> queued_scratch_;  ///< sorted, for pruning
  ModelScratch scratch_;
  RefreshStats stats_;
};

}  // namespace easched::core
