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
//     after each move. Kept verbatim for the differential tests and the
//     solver_scaling bench baseline.
//
//   hill_climb() — the production solver: it exploits the Dirty contract
//     (a move changes cells only in the moved column and the two touched
//     rows) to maintain a per-column blocked argmin incrementally, so an
//     iteration costs O(cols x (block + rows/block)) instead of
//     O(rows x cols) — an ~8x round speedup at 1600 hosts
//     (bench_micro solver_scaling, BENCH_solver.json). Its move trace is
//     bit-identical to the reference's (tests/test_solver_equivalence.cpp
//     compares full move traces).
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
// Optionally (candidate pruning; both must be *conservative*, i.e. only
// ever true for cells whose delta against any keep score is >= 0, so the
// argmin provably never selects them and the move trace stays identical):
//   bool provably_inf(int r, int c);      // skip one candidate cell
//   bool skip_block(int c, int blk);      // skip a whole kArgminBlock
#pragma once

#include <algorithm>
#include <vector>

#include "core/score.hpp"

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
/// of every block, plus the reduction over blocks. A move dirties two rows
/// (the Dirty contract), so per column only the touched rows' blocks are
/// rescanned and the block minima re-reduced — O(kArgminBlock + rows /
/// kArgminBlock) instead of O(rows) — and nothing is ever stale. Deltas
/// are compared post-rounding in (delta, row) order, which is exactly the
/// reference scan's first-minimum behaviour, so traces match bit for bit.
template <typename Model>
HillClimbStats hill_climb(Model& model, const HillClimbLimits& limits) {
  HillClimbStats stats;
  const int rows = model.rows();
  const int cols = model.cols();
  const int vrow = model.virtual_row();
  if (cols == 0 || rows <= 1) return stats;

  // kArgminBlock (core/score.hpp) is shared with the fleet bucket index:
  // its per-block free-capacity maxima are what skip_block() consults.
  const int nblocks = (rows + kArgminBlock - 1) / kArgminBlock;
  struct Cand {
    double delta = 0;
    int row = -1;  ///< -1: no candidate
  };
  // Lexicographic (delta, row) "is d/r better than b": reproduces the
  // reference's ascending scan with strict <, i.e. first minimum wins.
  const auto better = [](double d, int r, const Cand& b) {
    return b.row < 0 || d < b.delta || (d == b.delta && r < b.row);
  };
  std::vector<Cand> block_best(static_cast<std::size_t>(cols) *
                               static_cast<std::size_t>(nblocks));
  std::vector<Cand> best(static_cast<std::size_t>(cols));
  // Score of keeping each column where it is planned. It changes only when
  // the column or its plan row is dirtied, and exactly then the column is
  // recomputed (recompute_col), which re-reads it.
  std::vector<double> keep_score(static_cast<std::size_t>(cols));

  const auto rescan_block = [&](int c, int blk) {
    const int plan = model.plan_row(c);
    const double keep = keep_score[static_cast<std::size_t>(c)];
    Cand b;
    const int lo = blk * kArgminBlock;
    const int hi = std::min(rows, lo + kArgminBlock);
    for (int r = lo; r < hi; ++r) {
      if (r == plan || r == vrow) continue;
      if constexpr (requires { model.provably_inf(r, c); }) {
        // A provably infeasible cell has delta >= 0 against any keep
        // score, so it can never be a candidate — skip the evaluation.
        if (model.provably_inf(r, c)) continue;
      }
      const double delta = model.cell(r, c) - keep;
      if (better(delta, r, b)) b = {delta, r};
    }
    block_best[static_cast<std::size_t>(c) *
                   static_cast<std::size_t>(nblocks) +
               static_cast<std::size_t>(blk)] = b;
  };
  // rescan_block with the block-level capacity prune in front: when the
  // model proves that no host in the block can fit the column's VM, every
  // cell in it is infeasible (delta >= 0) and the block's candidate slot
  // is *cleared* — a stale pre-move candidate must not survive a skip.
  const auto scan_block = [&](int c, int blk) {
    if constexpr (requires { model.skip_block(c, blk); }) {
      if (model.skip_block(c, blk)) {
        block_best[static_cast<std::size_t>(c) *
                       static_cast<std::size_t>(nblocks) +
                   static_cast<std::size_t>(blk)] = Cand{};
        return;
      }
    }
    rescan_block(c, blk);
  };
  const auto reduce_col = [&](int c) {
    Cand b;
    const std::size_t base = static_cast<std::size_t>(c) *
                             static_cast<std::size_t>(nblocks);
    for (int blk = 0; blk < nblocks; ++blk) {
      const Cand& bb = block_best[base + static_cast<std::size_t>(blk)];
      if (bb.row >= 0 && better(bb.delta, bb.row, b)) b = bb;
    }
    best[static_cast<std::size_t>(c)] = b;
  };
  const auto recompute_col = [&](int c) {
    keep_score[static_cast<std::size_t>(c)] = model.cell(model.plan_row(c), c);
    for (int blk = 0; blk < nblocks; ++blk) scan_block(c, blk);
    reduce_col(c);
  };

  for (int c = 0; c < cols; ++c) recompute_col(c);

  while (stats.moves < limits.max_moves) {
    // Deterministic reduction over the per-column bests, in ascending
    // column order with strict <: the same winner as the reference's
    // column-major full scan.
    int best_r = -1, best_c = -1;
    double best_delta = -limits.min_gain;
    for (int c = 0; c < cols; ++c) {
      if (!model.movable(c)) continue;
      const bool is_migration = model.original_row(c) != vrow;
      if (is_migration &&
          stats.migration_moves >= limits.max_migration_moves) {
        continue;
      }
      const Cand& b = best[static_cast<std::size_t>(c)];
      if (b.row < 0) continue;
      const double threshold =
          is_migration ? -limits.min_migration_gain : -limits.min_gain;
      if (b.delta < best_delta && b.delta <= threshold) {
        best_delta = b.delta;
        best_r = b.row;
        best_c = c;
      }
    }
    if (best_c < 0) break;  // no negative values remain

    if (model.original_row(best_c) != vrow) {
      ++stats.migration_moves;
    }
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
    //  - every other column: only the touched rows' cells changed, so
    //    rescanning their blocks and re-reducing is exact.
    const int ra = dirty.row_a;
    const int rb = dirty.row_b;
    for (int c = 0; c < cols; ++c) {
      const int plan = model.plan_row(c);
      if (c == dirty.col || plan == ra || plan == rb) {
        recompute_col(c);
        continue;
      }
      if (ra >= 0) scan_block(c, ra / kArgminBlock);
      if (rb >= 0 && (ra < 0 || rb / kArgminBlock != ra / kArgminBlock)) {
        scan_block(c, rb / kArgminBlock);
      }
      reduce_col(c);
    }
  }
  stats.hit_move_limit = stats.moves >= limits.max_moves;
  return stats;
}

}  // namespace easched::core
