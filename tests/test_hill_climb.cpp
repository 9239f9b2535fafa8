// Tests for the hill-climbing matrix solver (Algorithm 1), on toy models
// including the worked example of section III-B.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hill_climb.hpp"

namespace easched::core {
namespace {

/// Dense toy model: a fixed score matrix whose cells do not depend on the
/// plan (each move only changes the VM's own location), which makes the
/// solver's choices exactly predictable.
class ToyModel {
 public:
  ToyModel(std::vector<std::vector<double>> matrix, std::vector<int> current,
           std::vector<bool> new_vm)
      : matrix_(std::move(matrix)),
        plan_(std::move(current)),
        is_new_(std::move(new_vm)) {}

  [[nodiscard]] int rows() const { return static_cast<int>(matrix_.size()); }
  [[nodiscard]] int cols() const {
    return static_cast<int>(matrix_.front().size());
  }
  [[nodiscard]] int virtual_row() const { return rows() - 1; }
  [[nodiscard]] double cell(int r, int c) const {
    return matrix_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  }
  [[nodiscard]] int plan_row(int c) const {
    return plan_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] int original_row(int c) const {
    return is_new_[static_cast<std::size_t>(c)] ? virtual_row()
                                                : original_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] bool movable(int) const { return true; }

  struct Dirty {
    int col;
    int row_a;
    int row_b;
  };
  Dirty move(int r, int c) {
    moves.push_back({c, plan_[static_cast<std::size_t>(c)], r});
    const int old = plan_[static_cast<std::size_t>(c)];
    plan_[static_cast<std::size_t>(c)] = r;
    return {c, old == virtual_row() ? -1 : old, r};
  }

  std::vector<std::vector<double>> matrix_;
  std::vector<int> plan_;
  std::vector<int> original_ = plan_;
  std::vector<bool> is_new_;
  struct Move {
    int col, from, to;
  };
  std::vector<Move> moves;
};

constexpr double kInf = kInfScore;

TEST(HillClimb, EmptyModelNoMoves) {
  ToyModel m({{}}, {}, {});
  const auto stats = hill_climb(m, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 0);
}

TEST(HillClimb, PlacesQueuedVmOnCheapestHost) {
  // One queued VM (current = virtual row 2), two hosts.
  ToyModel m({{5.0}, {3.0}, {kInf}}, {2}, {true});
  const auto stats = hill_climb(m, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 1);
  EXPECT_EQ(m.plan_[0], 1);  // host with score 3
}

TEST(HillClimb, LeavesInfeasibleVmQueued) {
  ToyModel m({{kInf}, {kInf}, {kInf}}, {2}, {true});
  const auto stats = hill_climb(m, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 0);
  EXPECT_EQ(m.plan_[0], 2);
}

TEST(HillClimb, MovesRunningVmOnlyForImprovement) {
  // VM on host 0 (score 10); host 1 offers 4 -> move. Then stable.
  ToyModel m({{10.0}, {4.0}, {kInf}}, {0}, {false});
  const auto stats = hill_climb(m, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 1);
  EXPECT_EQ(m.plan_[0], 1);
  EXPECT_DOUBLE_EQ(stats.total_gain, 6.0);
}

TEST(HillClimb, NoMoveWhenAllDeltasPositive) {
  ToyModel m({{2.0}, {5.0}, {kInf}}, {0}, {false});
  const auto stats = hill_climb(m, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 0);
}

TEST(HillClimb, PicksMostNegativeDeltaFirst) {
  // Two VMs; VM1's improvement (-8) beats VM0's (-3).
  ToyModel m({{10.0, 9.0}, {7.0, 1.0}, {kInf, kInf}}, {0, 0}, {false, false});
  hill_climb(m, HillClimbLimits{});
  ASSERT_GE(m.moves.size(), 1u);
  EXPECT_EQ(m.moves[0].col, 1);
  EXPECT_EQ(m.moves[0].to, 1);
}

TEST(HillClimb, QueuedPlacementDominatesMigration) {
  // A queued VM's delta is ~-kInf, always ahead of finite migrations.
  ToyModel m({{10.0, 50.0}, {4.0, 40.0}, {kInf, kInf}},
             {0, 2}, {false, true});
  hill_climb(m, HillClimbLimits{});
  ASSERT_GE(m.moves.size(), 2u);
  EXPECT_EQ(m.moves[0].col, 1);  // placement first
}

TEST(HillClimb, RespectsMoveLimit) {
  ToyModel m({{10.0, 10.0, 10.0}, {1.0, 1.0, 1.0}, {kInf, kInf, kInf}},
             {0, 0, 0}, {false, false, false});
  HillClimbLimits limits;
  limits.max_moves = 2;
  const auto stats = hill_climb(m, limits);
  EXPECT_EQ(stats.moves, 2);
  EXPECT_TRUE(stats.hit_move_limit);
}

TEST(HillClimb, RespectsMigrationBudget) {
  ToyModel m({{10.0, 10.0, 10.0}, {1.0, 1.0, 1.0}, {kInf, kInf, kInf}},
             {0, 0, 0}, {false, false, false});
  HillClimbLimits limits;
  limits.max_migration_moves = 1;
  const auto stats = hill_climb(m, limits);
  EXPECT_EQ(stats.moves, 1);
  EXPECT_EQ(stats.migration_moves, 1);
  EXPECT_FALSE(stats.hit_move_limit);
}

TEST(HillClimb, MigrationBudgetDoesNotBlockPlacements) {
  ToyModel m({{10.0, 5.0}, {1.0, 3.0}, {kInf, kInf}}, {0, 2}, {false, true});
  HillClimbLimits limits;
  limits.max_migration_moves = 0;
  const auto stats = hill_climb(m, limits);
  EXPECT_EQ(stats.moves, 1);
  EXPECT_EQ(stats.migration_moves, 0);
  EXPECT_EQ(m.plan_[1], 1);  // queued VM placed on its best host
  EXPECT_EQ(m.plan_[0], 0);  // running VM pinned by the budget
}

TEST(HillClimb, MinMigrationGainFiltersMarginalMoves) {
  // Improvement of 6 for the running VM; threshold 10 blocks it.
  ToyModel m({{10.0}, {4.0}, {kInf}}, {0}, {false});
  HillClimbLimits limits;
  limits.min_migration_gain = 10.0;
  EXPECT_EQ(hill_climb(m, limits).moves, 0);
  limits.min_migration_gain = 5.0;
  EXPECT_EQ(hill_climb(m, limits).moves, 1);
}

TEST(HillClimb, NeverMovesToVirtualRow) {
  // The virtual row would be "free" (score 0) but is excluded by rule.
  ToyModel m({{10.0}, {20.0}, {0.0}}, {0}, {false});
  const auto stats = hill_climb(m, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 0);
  EXPECT_EQ(m.plan_[0], 0);
}

TEST(HillClimb, PaperWorkedExampleConverges) {
  // The 5x5 matrix of section III-B (VM columns 1..4 and N; host rows
  // H1..H3, HM, HV). Initial placements: VM1@HM, VM2@H3, VM3@H5->HM here,
  // VM4@H1, VMN@H6->H3 here (rows renumbered to fit 4 real hosts).
  ToyModel m(
      {
          {15.2, 15.2, kInf, 15.2, 10.0},
          {kInf, 7.8, 7.8, 7.8, kInf},
          {10.3, 10.3, kInf, 10.3, 10.5},
          {11.0, kInf, 11.0, 11.0, kInf},
          {kInf, kInf, kInf, kInf, kInf},  // HV
      },
      {3, 2, 3, 0, 2}, {false, false, false, false, false});
  const auto stats = hill_climb(m, HillClimbLimits{});
  // Expected first move: VM4's -7.4 (to H2, score 7.8 vs 15.2 at H1).
  ASSERT_GE(stats.moves, 1);
  EXPECT_EQ(m.moves[0].col, 3);
  EXPECT_EQ(m.moves[0].to, 1);
  // After convergence no negative delta remains.
  for (int c = 0; c < m.cols(); ++c) {
    const double keep = m.cell(m.plan_row(c), c);
    for (int r = 0; r < m.virtual_row(); ++r) {
      EXPECT_GE(m.cell(r, c) - keep, -1e-9);
    }
  }
}

TEST(HillClimb, TerminatesOnOscillatingModel) {
  // Adversarial model: scores flip so that a better row always "exists";
  // the move limit must still terminate the loop.
  class Oscillator {
   public:
    int rows() const { return 3; }
    int cols() const { return 1; }
    int virtual_row() const { return 2; }
    double cell(int r, int) const { return r == plan ? 10.0 : 5.0; }
    int plan_row(int) const { return plan; }
    int original_row(int) const { return 0; }
    bool movable(int) const { return true; }
    struct Dirty {
      int col, row_a, row_b;
    };
    Dirty move(int r, int) {
      const int old = plan;
      plan = r;
      return {0, old, r};
    }
    int plan = 0;
  } m;
  HillClimbLimits limits;
  limits.max_moves = 7;
  const auto stats = hill_climb(m, limits);
  EXPECT_EQ(stats.moves, 7);
  EXPECT_TRUE(stats.hit_move_limit);
}

/// Plan-dependent toy model with a score floor: a column's score on a row
/// is its base cost minus `bonus` for every other column planned there, so
/// a move changes both touched rows for every column (the Dirty contract).
/// The floor is the tightest plan-independent bound: the column's cheapest
/// base minus the bonus of every other column.
class CrowdModel {
 public:
  CrowdModel(std::vector<std::vector<double>> base, std::vector<int> plan,
             double bonus)
      : base_(std::move(base)), plan_(std::move(plan)), bonus_(bonus) {}

  int rows() const { return static_cast<int>(base_.size()) + 1; }
  int cols() const { return static_cast<int>(plan_.size()); }
  int virtual_row() const { return rows() - 1; }
  double cell(int r, int c) const {
    if (r == virtual_row()) return kInf;
    int others = 0;
    for (int o = 0; o < cols(); ++o) {
      if (o != c && plan_row(o) == r) ++others;
    }
    return base_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] -
           bonus_ * others;
  }
  double score_floor(int c) const {
    double lo = kInf;
    for (const auto& row : base_) {
      lo = std::min(lo, row[static_cast<std::size_t>(c)]);
    }
    return lo - bonus_ * (cols() - 1);
  }
  int plan_row(int c) const { return plan_[static_cast<std::size_t>(c)]; }
  int original_row(int c) const { return original_[static_cast<std::size_t>(c)]; }
  bool movable(int) const { return true; }
  struct Dirty {
    int col, row_a, row_b;
  };
  Dirty move(int r, int c) {
    const int old = plan_row(c);
    plan_[static_cast<std::size_t>(c)] = r;
    return {c, old, r};
  }

 private:
  std::vector<std::vector<double>> base_;  ///< [row][col], real rows
  std::vector<int> plan_;
  std::vector<int> original_ = plan_;
  double bonus_;
};

// A retired column comes back when its keep score rises, and from then on
// its candidates are tracked again. Columns X, Y, Z (bonus 10, migration
// gain 35): X shares row 0 with Y and is retired (floor -10, keep 20).
// Y leaves row 0 (delta -40), so X's keep rises to 30 and X is revived
// with best delta -30 on row 1. Z then joins Y on row 2 (-46), which
// improves X's row 2 to -40 — a cell only a revived, maintained column
// sees — and X follows (-40).
TEST(HillClimb, RetiredColumnIsRevivedWhenItsKeepScoreRises) {
  const std::vector<std::vector<double>> base = {
      // X    Y      Z
      {30.0, 50.0, 100.0},   // row 0
      {10.0, 100.0, 40.0},   // row 1
      {10.0, 0.0, 4.0},      // row 2
      {100.0, 100.0, 100.0}  // row 3
  };
  const std::vector<int> plan = {0, 0, 1};
  HillClimbLimits limits;
  limits.min_migration_gain = 35;
  CrowdModel fast(base, plan, 10);
  CrowdModel spec(base, plan, 10);
  const auto s_fast = hill_climb(fast, limits);
  const auto s_spec = hill_climb_reference(spec, limits);
  const std::vector<HillClimbMove> want = {
      {1, 0, 2, -40.0}, {2, 1, 2, -46.0}, {0, 0, 2, -40.0}};
  EXPECT_EQ(s_spec.trace, want);
  EXPECT_EQ(s_fast.trace, want);
  EXPECT_GE(s_fast.cols_retired, 1);
}

}  // namespace
}  // namespace easched::core
