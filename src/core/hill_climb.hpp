// Algorithm 1 of the paper: hill-climbing optimization of the allocation
// matrix.
//
// Iteratively pick the cell with the most negative delta — the score of
// planning the VM on a host minus the score of keeping it where it is — and
// apply that move, until no negative delta remains or the iteration limit
// hits ("a suboptimal solution much faster and cheaper than evaluating all
// possible configurations", section III-B).
//
// Two implementations share one contract:
//
//   hill_climb_reference() — the executable specification: a full
//     O(rows x cols) delta scan per iteration, refreshing the dirty region
//     after each move, with no pruning of any kind. The differential tests
//     hold the production solver to it, and bench_micro's solver_scaling
//     times it as the baseline.
//
//   hill_climb() — the production solver: it exploits the Dirty contract
//     (a move changes cells only in the moved column and the two touched
//     rows) to maintain a per-column blocked argmin incrementally, over
//     the live blocks only (those holding a row that can be a candidate;
//     a consolidated fleet's powered-off blocks are not). An iteration
//     costs O(cols x (block + live blocks)) instead of O(rows x cols), the
//     cold build O(cols x live blocks x block), and it skips the columns
//     the pick can never choose (retired by the model's score floor, or
//     out of migration budget).
//     At 1600 hosts, one SB consolidation round under the policy's limits
//     takes 0.11 s against the reference's 5.2 s (bench_micro
//     solver_scaling, Release, one core of a 4-vCPU Xeon container).
//     Its move trace is bit-identical to the reference's
//     (tests/test_solver_equivalence.cpp compares full move traces).
//
// The solver is generic over the model so the paper's worked 5x6 example
// matrix (and any toy model in the tests) can be optimized with exactly the
// code the real policy uses. The model concept:
//   int rows(), int cols(), int virtual_row();
//   double cell(int r, int c);            // score under the current plan
//   int plan_row(int c), int original_row(int c); bool movable(int c);
//   Dirty move(int r, int c);             // Dirty{col, row_a, row_b}
// cell() need not be cheap to repeat: both solvers read each cell they
// need once per dirtying and keep what they read (the reference its full
// matrix, hill_climb its per-column argmin and keep scores).
// Optionally (candidate pruning; each must be *conservative*, so the
// argmin provably never misses a cell it would select and the move trace
// stays identical):
//   bool block_live(int blk);             // drop a kArgminBlock for good
//   bool provably_inf(int r, int c);      // skip one candidate cell
//   bool skip_block(int c, int blk);      // skip a whole kArgminBlock
//   double score_floor(int c);            // retire a whole column
// block_live is read once per block at the start of a climb; it may be
// false only for a block none of whose cells has a delta < 0 under any
// plan and where no column starts but at the virtual row (which a move
// off it does not dirty). A model without it has every block live.
// provably_inf and skip_block may be true only for cells whose delta
// against any keep score is >= 0. score_floor(c) must be <= cell(r, c)
// for every real row r != plan_row(c) under any plan of the other
// columns, and may change only when column c itself moves; -infinity
// disables it. hill_climb retires a column while score_floor(c) minus its
// keep score exceeds the column's pick threshold.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/score.hpp"
#include "support/contracts.hpp"

namespace easched::core {

/// One applied move, in application order (the equivalence tests compare
/// these traces across solver variants with exact equality).
struct HillClimbMove {
  int col = -1;
  int from_row = -1;
  int to_row = -1;
  double delta = 0;  ///< the (negative) score delta the move realized
};

inline bool operator==(const HillClimbMove& a, const HillClimbMove& b) {
  return a.col == b.col && a.from_row == b.from_row && a.to_row == b.to_row &&
         a.delta == b.delta;
}

struct HillClimbStats {
  int moves = 0;
  int migration_moves = 0;  ///< moves of columns that started on a real host
  bool hit_move_limit = false;
  double total_gain = 0;  ///< sum of (negative) deltas taken, as a positive
  std::vector<HillClimbMove> trace;  ///< applied moves, in order
  // hill_climb()'s work, deterministic for a given model and limits (the
  // reference solver leaves them 0). A cell read is one model.cell() call.
  std::int64_t cells_read_cold = 0;    ///< first recompute of every column
  std::int64_t cells_read_update = 0;  ///< everything after the cold build
  int cols_retired = 0;  ///< column recomputes that ended retired
  std::int64_t blocks_skipped = 0;    ///< block scans skip_block() cut short
  std::int64_t blocks_rescanned = 0;  ///< block scans that read the rows
  std::int64_t col_reductions = 0;    ///< per-column reductions over blocks
};

struct HillClimbLimits {
  int max_moves = 256;          ///< Algorithm 1 iteration limit
  int max_migration_moves = 256;  ///< budget for moves of running VMs
  /// Minimum improvement for a move; migrations additionally require
  /// `min_migration_gain` so marginal reshuffles of running VMs (whose
  /// real cost the matrix only approximates) are not taken.
  double min_gain = 1e-9;
  double min_migration_gain = 1e-9;
};

/// The executable specification (the seed implementation): full-matrix
/// scan each iteration. O(moves x rows x cols); use hill_climb() instead.
template <typename Model>
HillClimbStats hill_climb_reference(Model& model,
                                    const HillClimbLimits& limits) {
  HillClimbStats stats;
  const int rows = model.rows();
  const int cols = model.cols();
  if (cols == 0 || rows <= 1) return stats;

  // Cache of Score(h, vm) under the current plan.
  std::vector<double> score(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(cols));
  const auto at = [cols](int r, int c) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) score[at(r, c)] = model.cell(r, c);
  }

  while (stats.moves < limits.max_moves) {
    // Scan for the most negative delta ("smallest position on CM").
    int best_r = -1, best_c = -1;
    double best_delta = -limits.min_gain;
    for (int c = 0; c < cols; ++c) {
      if (!model.movable(c)) continue;
      const bool is_migration = model.original_row(c) != model.virtual_row();
      if (is_migration &&
          stats.migration_moves >= limits.max_migration_moves) {
        continue;
      }
      const double threshold =
          is_migration ? -limits.min_migration_gain : -limits.min_gain;
      const double keep = score[at(model.plan_row(c), c)];
      for (int r = 0; r < rows; ++r) {
        if (r == model.plan_row(c) || r == model.virtual_row()) continue;
        const double delta = score[at(r, c)] - keep;
        if (delta < best_delta && delta <= threshold) {
          best_delta = delta;
          best_r = r;
          best_c = c;
        }
      }
    }
    if (best_c < 0) break;  // no negative values remain

    if (model.original_row(best_c) != model.virtual_row()) {
      ++stats.migration_moves;
    }
    const int from = model.plan_row(best_c);
    const auto dirty = model.move(best_r, best_c);
    ++stats.moves;
    stats.total_gain -= best_delta;
    stats.trace.push_back({best_c, from, best_r, best_delta});

    // Refresh the dirty region: the moved VM's column and every cell of the
    // two affected rows (their occupation changed for all columns).
    for (int r = 0; r < rows; ++r) {
      score[at(r, dirty.col)] = model.cell(r, dirty.col);
    }
    for (int c = 0; c < cols; ++c) {
      if (dirty.row_a >= 0) score[at(dirty.row_a, c)] = model.cell(dirty.row_a, c);
      if (dirty.row_b >= 0) score[at(dirty.row_b, c)] = model.cell(dirty.row_b, c);
    }
  }
  stats.hit_move_limit = stats.moves >= limits.max_moves;
  return stats;
}

/// The production solver: identical move sequence to hill_climb_reference()
/// (bit-identical deltas and final plan), with incremental per-column
/// argmin maintenance. See the header comment.
///
/// Per-column argmin structure: rows are grouped into fixed blocks of
/// kArgminBlock; each column keeps the lexicographic (delta, row) minimum
/// of every live block (block_live()), plus the reduction over them. A
/// dead block holds only cells the argmin can never select, under any
/// plan, so it is neither scanned nor stored. A move dirties two rows (the
/// Dirty contract), both in live blocks, so per column only the touched
/// rows' blocks are rescanned and the block minima re-reduced —
/// O(kArgminBlock + live blocks) instead of O(rows) — and nothing is ever
/// stale. Deltas are compared post-rounding in (delta, row) order, which
/// is exactly the reference scan's first-minimum behaviour, so traces
/// match bit for bit.
///
/// Columns the pick can never choose are not scanned at all:
///  - a *retired* column, whose score_floor() minus its keep score already
///    exceeds its pick threshold. Every one of its deltas is at least that
///    difference (rounded subtraction is monotone), so none can satisfy
///    `delta <= threshold`. Its cells may change when a move touches one
///    of its candidate rows, but the floor bounds every row under any
///    plan; only a new keep score can bring floor - keep down to the
///    threshold, and the keep score changes only when its plan row is
///    touched or it moves, both of which recompute it;
///  - a migration column once the migration budget is spent: the budget
///    only grows spent, and the pick skips such columns from then on.
template <typename Model>
HillClimbStats hill_climb(Model& model, const HillClimbLimits& limits) {
  HillClimbStats stats;
  const int rows = model.rows();
  const int cols = model.cols();
  const int vrow = model.virtual_row();
  if (cols == 0 || rows <= 1) return stats;

  // kArgminBlock (core/score.hpp) is shared with FleetState::blocks():
  // their per-block free-capacity maxima are what skip_block() consults.
  const int nblocks = (rows + kArgminBlock - 1) / kArgminBlock;
  // The live blocks, ascending, and each block's slot among them (-1:
  // dead). Liveness is plan-independent, so the list holds for the whole
  // climb; a dead block holds no candidate of any column under any plan
  // and is never scanned, reduced or stored.
  std::vector<int> live;
  std::vector<int> slot_of(static_cast<std::size_t>(nblocks), -1);
  for (int blk = 0; blk < nblocks; ++blk) {
    if constexpr (requires { model.block_live(blk); }) {
      if (!model.block_live(blk)) continue;
    }
    slot_of[static_cast<std::size_t>(blk)] = static_cast<int>(live.size());
    live.push_back(blk);
  }
  const auto nlive = live.size();
  // The slot of a touched row's block: a move touches only plan rows and
  // candidates, which lie in live blocks by the block_live contract.
  const auto slot_of_row = [&](int r) {
    const int slot = slot_of[static_cast<std::size_t>(r / kArgminBlock)];
    EA_ASSERT(slot >= 0);
    return static_cast<std::size_t>(slot);
  };
  struct Cand {
    double delta = 0;
    int row = -1;  ///< -1: no candidate
  };
  // Lexicographic (delta, row) "is d/r better than b": reproduces the
  // reference's ascending scan with strict <, i.e. first minimum wins.
  const auto better = [](double d, int r, const Cand& b) {
    return b.row < 0 || d < b.delta || (d == b.delta && r < b.row);
  };
  // Per column, the best candidate of each live block, by slot.
  std::vector<Cand> block_best(static_cast<std::size_t>(cols) * nlive);
  std::vector<Cand> best(static_cast<std::size_t>(cols));
  // Score of keeping each column where it is planned. It changes only when
  // the column or its plan row is dirtied, and exactly then the column is
  // recomputed (recompute_col), which re-reads it.
  std::vector<double> keep_score(static_cast<std::size_t>(cols));
  // Retired columns (see above); their block minima are not maintained.
  std::vector<unsigned char> retired(static_cast<std::size_t>(cols), 0);
  // The counter cell reads land in: the cold build's, then the updates'.
  std::int64_t* cells_read = &stats.cells_read_cold;

  const auto is_migration = [&](int c) {
    return model.original_row(c) != vrow;
  };
  const auto budget_spent = [&](int c) {
    return is_migration(c) &&
           stats.migration_moves >= limits.max_migration_moves;
  };
  const auto threshold = [&](int c) {
    return is_migration(c) ? -limits.min_migration_gain : -limits.min_gain;
  };

  // Scans live block `slot` of column `c` into its block_best entry.
  // When the model proves that no host in the block can fit the column's
  // VM (skip_block), every cell in it is infeasible (delta >= 0) and the
  // entry is *cleared* — a stale pre-move candidate must not survive a
  // skip.
  const auto scan_block = [&](int c, std::size_t slot) {
    const int blk = live[slot];
    Cand& out = block_best[static_cast<std::size_t>(c) * nlive + slot];
    if constexpr (requires { model.skip_block(c, blk); }) {
      if (model.skip_block(c, blk)) {
        out = Cand{};
        ++stats.blocks_skipped;
        return;
      }
    }
    ++stats.blocks_rescanned;
    const int plan = model.plan_row(c);
    const double keep = keep_score[static_cast<std::size_t>(c)];
    Cand b;
    const int lo = blk * kArgminBlock;
    const int hi = std::min(rows, lo + kArgminBlock);
    int read = 0;
    for (int r = lo; r < hi; ++r) {
      if (r == plan || r == vrow) continue;
      if constexpr (requires { model.provably_inf(r, c); }) {
        // A provably infeasible cell has delta >= 0 against any keep
        // score, so it can never be a candidate — skip the evaluation.
        if (model.provably_inf(r, c)) continue;
      }
      const double delta = model.cell(r, c) - keep;
      ++read;
      if (better(delta, r, b)) b = {delta, r};
    }
    *cells_read += read;
    out = b;
  };
  const auto reduce_col = [&](int c) {
    ++stats.col_reductions;
    Cand b;
    const std::size_t base = static_cast<std::size_t>(c) * nlive;
    for (std::size_t slot = 0; slot < nlive; ++slot) {
      const Cand& bb = block_best[base + slot];
      if (bb.row >= 0 && better(bb.delta, bb.row, b)) b = bb;
    }
    best[static_cast<std::size_t>(c)] = b;
  };
  const auto recompute_col = [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    const double keep = model.cell(model.plan_row(c), c);
    ++*cells_read;
    keep_score[i] = keep;
    bool retire = false;
    if constexpr (requires { model.score_floor(c); }) {
      retire = model.score_floor(c) - keep > threshold(c);
    }
    retired[i] = retire ? 1 : 0;
    if (retire) {
      best[i] = Cand{};
      ++stats.cols_retired;
      return;
    }
    for (std::size_t slot = 0; slot < nlive; ++slot) scan_block(c, slot);
    reduce_col(c);
  };

  for (int c = 0; c < cols; ++c) {
    if (!budget_spent(c)) recompute_col(c);
  }
  cells_read = &stats.cells_read_update;

  while (stats.moves < limits.max_moves) {
    // Deterministic reduction over the per-column bests, in ascending
    // column order with strict <: the same winner as the reference's
    // column-major full scan.
    int best_r = -1, best_c = -1;
    double best_delta = -limits.min_gain;
    for (int c = 0; c < cols; ++c) {
      if (!model.movable(c) || budget_spent(c)) continue;
      const Cand& b = best[static_cast<std::size_t>(c)];
      if (b.row < 0) continue;
      if (b.delta < best_delta && b.delta <= threshold(c)) {
        best_delta = b.delta;
        best_r = b.row;
        best_c = c;
      }
    }
    if (best_c < 0) break;  // no negative values remain

    if (is_migration(best_c)) ++stats.migration_moves;
    const int from = model.plan_row(best_c);
    const auto dirty = model.move(best_r, best_c);
    ++stats.moves;
    stats.total_gain -= best_delta;
    stats.trace.push_back({best_c, from, best_r, best_delta});

    // Update the per-column state for the dirty region:
    //  - the moved column (plan row, keep score and row exclusion changed,
    //    and per the Dirty contract all of its cells may have): full
    //    recompute;
    //  - columns planned on a touched row (their keep score changed, which
    //    shifts every delta): full recompute;
    //  - retired columns and, once the budget is spent, migration
    //    columns: nothing (see above);
    //  - every other column: only the touched rows' cells changed, so
    //    rescanning their blocks and re-reducing is exact.
    const int ra = dirty.row_a;
    const int rb = dirty.row_b;
    const std::size_t slot_a = ra >= 0 ? slot_of_row(ra) : 0;
    const std::size_t slot_b = rb >= 0 ? slot_of_row(rb) : 0;
    for (int c = 0; c < cols; ++c) {
      if (budget_spent(c)) continue;
      const int plan = model.plan_row(c);
      if (c == dirty.col || plan == ra || plan == rb) {
        recompute_col(c);
        continue;
      }
      if (retired[static_cast<std::size_t>(c)] != 0) continue;
      if (ra >= 0) scan_block(c, slot_a);
      if (rb >= 0 && (ra < 0 || slot_b != slot_a)) scan_block(c, slot_b);
      reduce_col(c);
    }
  }
  stats.hit_move_limit = stats.moves >= limits.max_moves;
  return stats;
}

}  // namespace easched::core
