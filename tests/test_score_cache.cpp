// Property tests for the ScoreModel's one stored score: the cross-round
// persisted columns (FleetColCache) of queued VMs. Across hundreds of
// randomized datacenters, each carried over several refreshed rounds with
// journalled dirt in between and driven through random move sequences,
// every cell read must equal a fresh evaluation at ZERO tolerance — a
// persisted cell stores the result of the same arithmetic, so even the
// last ulp must match. This is the lockdown of the persisted-column
// contract described in src/core/score_matrix.hpp.
#include <gtest/gtest.h>

#include <vector>

#include "core/fleet.hpp"
#include "core/score.hpp"
#include "core/score_matrix.hpp"
#include "test_random_instances.hpp"

namespace easched::core {
namespace {

using datacenter::HostId;
using datacenter::VmId;
using easched::testing::RandomInstance;
using easched::testing::make_random_instance;

/// Bitwise check of every cell against a fresh evaluation, plus the
/// kScoreCache scan over the persisted columns.
void expect_cache_fresh(const ScoreModel& model) {
  for (int r = 0; r < model.rows(); ++r) {
    for (int c = 0; c < model.cols(); ++c) {
      // EXPECT_EQ, not EXPECT_NEAR: tolerance is exactly zero.
      ASSERT_EQ(model.cell(r, c), model.breakdown(r, c).total)
          << "cache diverged at (" << r << ", " << c << ")";
    }
  }
  ASSERT_EQ(model.count_cache_divergences(), 0);
}

/// Journalled dirt between rounds: the clock advances (operations age and
/// complete), a random host flips maintenance, and the first queued VM
/// that fits somewhere is placed (its column leaves the queue, its host
/// gains a reservation and an in-flight creation).
void dirty_between_rounds(support::Rng& rng, easched::testing::SmallDc& f,
                          std::vector<VmId>& queue) {
  f.simulator.run_until(f.simulator.now() + rng.uniform(30, 600));
  const auto h =
      static_cast<HostId>(rng.uniform_int(0, f.dc.num_hosts() - 1));
  f.dc.set_maintenance(h, !f.dc.host(h).maintenance);
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    for (HostId to = 0; to < f.dc.num_hosts(); ++to) {
      if (!f.dc.placeable(to) || !f.dc.fits(to, *it)) continue;
      f.dc.place(*it, to);
      queue.erase(it);
      return;
    }
  }
}

/// The scenario's parameters with PSLA off: only then are queued columns
/// round-time-independent and persisted, which is what these tests probe.
ScoreParams persisting(const RandomInstance& inst) {
  ScoreParams params = inst.params;
  params.use_sla = false;
  return params;
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
// datacenters, each carried through three refreshed rounds of one
// FleetState. Each round's incremental model is driven through a random
// move sequence with a full persisted-vs-fresh sweep after every apply.
TEST_P(ScoreCacheProperty, CachedCellsEqualFreshRecomputation) {
  const std::uint64_t seed = GetParam();
  support::Rng rng{seed};
  for (int instance = 0; instance < 100; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    const ScoreParams params = persisting(inst);
    std::vector<VmId> queue = inst.queue;
    FleetState fleet;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      fleet.refresh(inst.fixture->dc, queue);
      {
        ScoreModel model(fleet, inst.fixture->dc, queue, params,
                         inst.migration);
        ASSERT_FALSE(model.reference());
        expect_cache_fresh(model);  // persists every queued cell
        const int moves =
            model.cols() == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 12));
        for (int m = 0; m < moves; ++m) {
          int r = -1, c = -1;
          if (!random_move(rng, model, &r, &c)) break;
          model.move(r, c);
          expect_cache_fresh(model);
          ASSERT_EQ(model.plan_row(c), r);
        }
      }
      dirty_between_rounds(rng, *inst.fixture, queue);
    }
  }
}

// Read order must not matter: two models of the same round, fed the same
// moves but read in different orders (one eagerly before the moves, one
// lazily and sparsely), agree bitwise on every cell. Both write through
// to the one FleetState's persisted columns, over three refreshed rounds
// with journalled dirt in between.
TEST_P(ScoreCacheProperty, ReadOrderDoesNotAffectValues) {
  const std::uint64_t seed = GetParam() * 1000003 + 17;
  support::Rng rng{seed};
  for (int instance = 0; instance < 40; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    const ScoreParams params = persisting(inst);
    std::vector<VmId> queue = inst.queue;
    FleetState fleet;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      fleet.refresh(inst.fixture->dc, queue);
      {
        ScoreModel eager(fleet, inst.fixture->dc, queue, params,
                         inst.migration);
        ScoreModel lazy(fleet, inst.fixture->dc, queue, params,
                        inst.migration);
        for (int r = 0; r < eager.rows(); ++r) {
          for (int c = 0; c < eager.cols(); ++c) (void)eager.cell(r, c);
        }
        const int moves =
            eager.cols() == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 10));
        for (int m = 0; m < moves; ++m) {
          int r = -1, c = -1;
          if (!random_move(rng, eager, &r, &c)) break;
          eager.move(r, c);
          lazy.move(r, c);
          // Sparse random reads on the lazy model, an arbitrary subset.
          for (int k = 0; k < 5; ++k) {
            const int rr =
                static_cast<int>(rng.uniform_int(0, lazy.rows() - 1));
            const int cc =
                static_cast<int>(rng.uniform_int(0, lazy.cols() - 1));
            (void)lazy.cell(rr, cc);
          }
        }
        for (int r = 0; r < eager.rows(); ++r) {
          for (int c = 0; c < eager.cols(); ++c) {
            ASSERT_EQ(eager.cell(r, c), lazy.cell(r, c));
          }
        }
      }
      dirty_between_rounds(rng, *inst.fixture, queue);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreCacheProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// row_aggregate reads through cell(); spot-check it tracks moves.
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
      const double s = model.breakdown(row, col).total;
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
