// Differential tests locking the production hill climber to its executable
// specification: across randomized instances, hill_climb() must produce
// the exact move sequence — column, rows and bit-identical delta — and
// final plan of hill_climb_reference(), and on
// small instances selected seeds must reach the exhaustive optimum.
#include <gtest/gtest.h>

#include <vector>

#include "core/exhaustive.hpp"
#include "core/hill_climb.hpp"
#include "core/score_matrix.hpp"
#include "test_random_instances.hpp"

namespace easched::core {
namespace {

using easched::testing::RandomInstance;
using easched::testing::make_random_instance;

double plan_cost(const ScoreModel& model) {
  double sum = 0;
  for (int c = 0; c < model.cols(); ++c) {
    sum += model.cell(model.plan_row(c), c);
  }
  return sum;
}

void expect_same_outcome(const HillClimbStats& a, const HillClimbStats& b,
                         const ScoreModel& ma, const ScoreModel& mb) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_TRUE(a.trace[i] == b.trace[i])
        << "traces diverge at move " << i << ": (" << a.trace[i].col << ","
        << a.trace[i].from_row << "->" << a.trace[i].to_row << ", "
        << a.trace[i].delta << ") vs (" << b.trace[i].col << ","
        << b.trace[i].from_row << "->" << b.trace[i].to_row << ", "
        << b.trace[i].delta << ")";
  }
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.migration_moves, b.migration_moves);
  EXPECT_EQ(a.hit_move_limit, b.hit_move_limit);
  EXPECT_EQ(a.total_gain, b.total_gain);  // same deltas, same order: bitwise
  ASSERT_EQ(ma.cols(), mb.cols());
  for (int c = 0; c < ma.cols(); ++c) {
    ASSERT_EQ(ma.plan_row(c), mb.plan_row(c)) << "plans diverge at col " << c;
  }
}

class SolverEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// The tentpole guarantee: incremental hill climbing replays the reference
// solver's move trace exactly.
TEST_P(SolverEquivalence, IncrementalMatchesReference) {
  const std::uint64_t seed = GetParam();
  support::Rng rng{seed};
  for (int instance = 0; instance < 25; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    HillClimbLimits limits;
    // Exercise the budget and threshold paths too, not just defaults.
    if (rng.uniform01() < 0.3) {
      limits.max_moves = static_cast<int>(rng.uniform_int(1, 6));
    }
    if (rng.uniform01() < 0.3) {
      limits.max_migration_moves = static_cast<int>(rng.uniform_int(0, 3));
    }
    if (rng.uniform01() < 0.3) limits.min_migration_gain = 35;

    ScoreModel m_ref(inst.fixture->dc, inst.queue, inst.params,
                     inst.migration);
    ScoreModel m_ser(inst.fixture->dc, inst.queue, inst.params,
                     inst.migration);

    const HillClimbStats s_ref = hill_climb_reference(m_ref, limits);
    const HillClimbStats s_ser = hill_climb(m_ser, limits);

    expect_same_outcome(s_ref, s_ser, m_ref, m_ser);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// On small instances (<= 4 hosts, <= 5 VMs) the greedy solver reaches the
// exhaustive optimum for these seeds (chosen to satisfy that; greedy is
// not optimal in general — see test_exhaustive.cpp for a counterexample
// discussion). Guards solution quality, not just internal consistency.
class SolverOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverOptimality, HillClimbReachesExhaustiveOptimum) {
  const std::uint64_t seed = GetParam();
  support::Rng rng{seed};
  RandomInstance inst = make_random_instance(rng, seed, 0, /*max_hosts=*/4,
                                             /*max_running=*/3,
                                             /*max_queued=*/2);
  SCOPED_TRACE(inst.describe());
  ScoreModel m_hc(inst.fixture->dc, inst.queue, inst.params, inst.migration);
  ScoreModel m_ex(inst.fixture->dc, inst.queue, inst.params, inst.migration);
  ASSERT_LE(m_hc.rows(), 5);
  ASSERT_LE(m_hc.cols(), 5);

  hill_climb(m_hc, HillClimbLimits{});
  const ExhaustiveResult best = exhaustive_search(m_ex);
  EXPECT_NEAR(plan_cost(m_hc), best.best_cost, 1e-9)
      << "greedy plan is suboptimal on this instance";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOptimality,
                         ::testing::Values(9001u, 9002u, 9003u, 9004u, 9005u,
                                           9006u, 9007u, 9008u));

// Degenerate shapes must not trip the incremental bookkeeping.
TEST(SolverEquivalence, EmptyQueueNoMigrationIsANoOp) {
  support::Rng rng{77};
  RandomInstance inst = make_random_instance(rng, 77, 0);
  SCOPED_TRACE(inst.describe());
  const std::vector<datacenter::VmId> empty;
  ScoreModel model(inst.fixture->dc, empty, inst.params,
                   /*migration_enabled=*/false);
  ASSERT_EQ(model.cols(), 0);
  const HillClimbStats stats = hill_climb(model, HillClimbLimits{});
  EXPECT_EQ(stats.moves, 0);
  EXPECT_TRUE(stats.trace.empty());
}

}  // namespace
}  // namespace easched::core
