// Property tests for the ScoreModel's incremental evaluation: across
// hundreds of randomized datacenters and random move sequences, every
// cached cell must equal a fresh recomputation at ZERO tolerance — the
// cache stores results of the same arithmetic, so even the last ulp must
// match. This is the lockdown of the cache-invalidation contract described
// in src/core/score_matrix.hpp.
#include <gtest/gtest.h>

#include <vector>

#include "core/score.hpp"
#include "core/score_matrix.hpp"
#include "test_random_instances.hpp"

namespace easched::core {
namespace {

using easched::testing::RandomInstance;
using easched::testing::make_random_instance;

/// Bitwise check of every cell against a cache-bypassing recomputation.
void expect_cache_fresh(const ScoreModel& model) {
  for (int r = 0; r < model.rows(); ++r) {
    for (int c = 0; c < model.cols(); ++c) {
      // EXPECT_EQ, not EXPECT_NEAR: tolerance is exactly zero.
      ASSERT_EQ(model.cell(r, c), model.recompute_cell(r, c))
          << "cache diverged at (" << r << ", " << c << ")";
    }
  }
}

/// Picks a random legal move: a movable column and a row it is not planned
/// on. Queued columns may also be evicted back to the virtual row.
bool random_move(support::Rng& rng, ScoreModel& model, int* out_r,
                 int* out_c) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    const int c = static_cast<int>(rng.uniform_int(0, model.cols() - 1));
    if (!model.movable(c)) continue;
    const int max_row = model.original_row(c) == model.virtual_row()
                            ? model.virtual_row()
                            : model.virtual_row() - 1;
    const int r = static_cast<int>(rng.uniform_int(0, max_row));
    if (r == model.plan_row(c)) continue;
    *out_r = r;
    *out_c = c;
    return true;
  }
  return false;
}

class ScoreCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The headline property: 100 instances per seed x 5 seeds = 500 randomized
// datacenters, each driven through a random move sequence with a full
// cache-vs-fresh sweep after every apply.
TEST_P(ScoreCacheProperty, CachedCellsEqualFreshRecomputation) {
  const std::uint64_t seed = GetParam();
  support::Rng rng{seed};
  for (int instance = 0; instance < 100; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    ScoreModel model(inst.fixture->dc, inst.queue, inst.params,
                     inst.migration);
    if (model.cols() == 0) continue;

    expect_cache_fresh(model);  // cold cache / static-term build
    const int moves = static_cast<int>(rng.uniform_int(1, 12));
    for (int m = 0; m < moves; ++m) {
      int r = -1, c = -1;
      if (!random_move(rng, model, &r, &c)) break;
      model.move(r, c);
      expect_cache_fresh(model);
      ASSERT_EQ(model.plan_row(c), r);
    }
  }
}

// Read order must not matter: two models fed the same moves but read in
// different orders (one primed, one lazily and sparsely read) agree
// bitwise on every cell.
TEST_P(ScoreCacheProperty, ReadOrderDoesNotAffectValues) {
  const std::uint64_t seed = GetParam() * 1000003 + 17;
  support::Rng rng{seed};
  for (int instance = 0; instance < 40; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    ScoreModel primed(inst.fixture->dc, inst.queue, inst.params,
                      inst.migration);
    ScoreModel lazy(inst.fixture->dc, inst.queue, inst.params,
                    inst.migration);
    if (primed.cols() == 0) continue;
    primed.prime();

    const int moves = static_cast<int>(rng.uniform_int(1, 10));
    for (int m = 0; m < moves; ++m) {
      int r = -1, c = -1;
      if (!random_move(rng, primed, &r, &c)) break;
      primed.move(r, c);
      lazy.move(r, c);
      // Sparse random reads on the lazy model, warming an arbitrary subset.
      for (int k = 0; k < 5; ++k) {
        const int rr = static_cast<int>(rng.uniform_int(0, lazy.rows() - 1));
        const int cc = static_cast<int>(rng.uniform_int(0, lazy.cols() - 1));
        (void)lazy.cell(rr, cc);
      }
    }
    for (int r = 0; r < primed.rows(); ++r) {
      for (int c = 0; c < primed.cols(); ++c) {
        ASSERT_EQ(primed.cell(r, c), lazy.cell(r, c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreCacheProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// row_aggregate reads through the same cache; spot-check it tracks moves.
TEST(ScoreCache, RowAggregateTracksMoves) {
  support::Rng rng{42};
  RandomInstance inst = make_random_instance(rng, 42, 0);
  SCOPED_TRACE(inst.describe());
  ScoreModel model(inst.fixture->dc, inst.queue, inst.params,
                   inst.migration);
  ASSERT_GT(model.cols(), 0);

  int r = -1, c = -1;
  ASSERT_TRUE(random_move(rng, model, &r, &c));
  model.move(r, c);
  for (int row = 0; row < model.virtual_row(); ++row) {
    double expected = 0;
    int inf_count = 0;
    for (int col = 0; col < model.cols(); ++col) {
      const double s = model.recompute_cell(row, col);
      if (is_inf_score(s)) {
        ++inf_count;
      } else {
        expected += s;
      }
    }
    EXPECT_EQ(model.row_aggregate(row), inf_count * 1e9 + expected);
  }
}

}  // namespace
}  // namespace easched::core
