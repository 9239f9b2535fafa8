// Property tests for the ScoreModel's two modes. Across hundreds of
// randomized datacenters, each carried over several refreshed rounds of
// one FleetState with journalled dirt in between and driven through random
// move sequences, every cell of the incremental model must equal the
// reference model's at ZERO tolerance: both modes run the same evaluator
// over bitwise-equal snapshots and plans, so even the last ulp must match.
// Neither mode stores a score, so neither the round a model is built in
// nor the order its cells are read in may change a value. The incremental
// model's score floor bounds every candidate cell under random plans.
#include <gtest/gtest.h>

#include <limits>
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
using easched::testing::randomize_weights;

/// Bitwise check of every cell and plan row of `inc` against `ref`, and of
/// the pruning: a cell the incremental model may skip as provably infinite
/// must be infinite in the reference.
void expect_same_cells(const ScoreModel& inc, const ScoreModel& ref) {
  ASSERT_EQ(inc.rows(), ref.rows());
  ASSERT_EQ(inc.cols(), ref.cols());
  for (int c = 0; c < inc.cols(); ++c) {
    ASSERT_EQ(inc.plan_row(c), ref.plan_row(c)) << "column " << c;
  }
  for (int r = 0; r < inc.rows(); ++r) {
    for (int c = 0; c < inc.cols(); ++c) {
      const double want = ref.cell(r, c);
      // ASSERT_EQ, not ASSERT_NEAR: tolerance is exactly zero.
      ASSERT_EQ(inc.cell(r, c), want)
          << "incremental diverged at (" << r << ", " << c << ")";
      if (r < inc.virtual_row() && inc.provably_inf(r, c)) {
        ASSERT_TRUE(is_inf_score(want))
            << "pruned a finite cell at (" << r << ", " << c << ")";
      }
    }
  }
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

class ScoreModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The headline property: 100 instances per seed x 5 seeds = 500 randomized
// datacenters, each carried through three refreshed rounds of one
// FleetState. Each round's incremental model and a reference model of the
// same round are driven through the same random move sequence, with a
// full bitwise sweep after every apply.
TEST_P(ScoreModelProperty, IncrementalCellsEqualReference) {
  const std::uint64_t seed = GetParam();
  support::Rng rng{seed};
  for (int instance = 0; instance < 100; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    std::vector<VmId> queue = inst.queue;
    FleetState fleet;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      fleet.refresh(inst.fixture->dc);
      {
        ScoreModel inc(fleet, inst.fixture->dc, queue, inst.params,
                       inst.migration);
        ScoreModel ref(inst.fixture->dc, queue, inst.params, inst.migration);
        ASSERT_FALSE(inc.reference());
        ASSERT_TRUE(ref.reference());
        expect_same_cells(inc, ref);
        const int moves =
            inc.cols() == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 12));
        for (int m = 0; m < moves; ++m) {
          int r = -1, c = -1;
          if (!random_move(rng, inc, &r, &c)) break;
          inc.move(r, c);
          ref.move(r, c);
          expect_same_cells(inc, ref);
          ASSERT_EQ(inc.plan_row(c), r);
        }
      }
      dirty_between_rounds(rng, *inst.fixture, queue);
    }
  }
}

// Read order must not matter: an incremental model read eagerly before
// the moves and a reference model of the same round read lazily and
// sparsely, fed the same moves, agree bitwise on every cell at the end —
// over three refreshed rounds with journalled dirt in between.
TEST_P(ScoreModelProperty, ReadOrderDoesNotAffectValues) {
  const std::uint64_t seed = GetParam() * 1000003 + 17;
  support::Rng rng{seed};
  for (int instance = 0; instance < 40; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    std::vector<VmId> queue = inst.queue;
    FleetState fleet;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      fleet.refresh(inst.fixture->dc);
      {
        ScoreModel eager(fleet, inst.fixture->dc, queue, inst.params,
                         inst.migration);
        ScoreModel lazy(inst.fixture->dc, queue, inst.params,
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

// The score floor's contract (score_matrix.hpp): under any plan the random
// moves produce, score_floor(c) is at most every cell of column c on a
// real row other than its plan row — the home row included once the
// column has left it — and it changes only when column c itself moves.
// The reference model's floor is -infinity.
TEST_P(ScoreModelProperty, ScoreFloorBoundsEveryCandidateCell) {
  const std::uint64_t seed = GetParam() * 7777 + 5;
  support::Rng rng{seed};
  for (int instance = 0; instance < 60; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    randomize_weights(rng, inst.params);
    FleetState fleet;
    fleet.refresh(inst.fixture->dc);
    ScoreModel inc(fleet, inst.fixture->dc, inst.queue, inst.params,
                   inst.migration);
    ScoreModel ref(inst.fixture->dc, inst.queue, inst.params,
                   inst.migration);
    std::vector<double> floors(static_cast<std::size_t>(inc.cols()));
    const auto check = [&] {
      for (int c = 0; c < inc.cols(); ++c) {
        ASSERT_EQ(ref.score_floor(c), -std::numeric_limits<double>::infinity());
        const double floor = inc.score_floor(c);
        floors[static_cast<std::size_t>(c)] = floor;
        for (int r = 0; r < inc.virtual_row(); ++r) {
          if (r == inc.plan_row(c)) continue;
          ASSERT_LE(floor, inc.cell(r, c))
              << "floor above the cell at (" << r << ", " << c << ")";
        }
      }
    };
    check();
    if (::testing::Test::HasFatalFailure()) return;
    const int moves =
        inc.cols() == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 16));
    for (int m = 0; m < moves; ++m) {
      int r = -1, c = -1;
      if (!random_move(rng, inc, &r, &c)) break;
      inc.move(r, c);
      for (int other = 0; other < inc.cols(); ++other) {
        if (other == c) continue;
        ASSERT_EQ(inc.score_floor(other),
                  floors[static_cast<std::size_t>(other)])
            << "column " << other << "'s floor moved with column " << c;
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Once a running column leaves home, its home row is a candidate with
// Pvirt = Pconc = 0: below the fleet's cheapest Pconc while every host has
// a creation in flight. Home is exactly full with the VM back (Ppwr = -Cf),
// so the floor must leave Pconc out there.
TEST(ScoreFloor, CoversTheHomeRowOnceTheColumnLeft) {
  datacenter::DatacenterConfig config;
  config.hosts.assign(4, datacenter::HostSpec::medium());
  config.hosts[0].cpu_capacity_pct = 500;
  const std::size_t hosts = config.hosts.size();
  easched::testing::SmallDc f(hosts, std::move(config));
  for (int k = 0; k < 4; ++k) {
    f.admit_and_place(easched::testing::make_job(100, 512, 36000), 0);
  }
  f.simulator.run_until(600);
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {  // creations in flight
    f.admit_and_place(easched::testing::make_job(100, 512, 36000), h);
  }
  FleetState fleet;
  fleet.refresh(f.dc);
  const std::vector<VmId> no_queue;
  ScoreModel model(fleet, f.dc, no_queue, ScoreParams{}, true);
  ASSERT_EQ(model.cols(), 4);  // the settled VMs on host 0
  for (int r = 1; r < model.virtual_row(); ++r) {
    ASSERT_GT(model.breakdown(r, 0).conc, 0) << "host " << r << " is idle";
  }
  model.move(1, 0);
  const ScoreBreakdown home = model.breakdown(0, 0);
  ASSERT_EQ(home.conc, 0);
  ASSERT_EQ(home.pwr, -ScoreParams{}.c_fill);
  EXPECT_LE(model.score_floor(0), home.total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreModelProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// row_aggregate reads through cell(); spot-check it tracks moves.
TEST(ScoreModelRows, RowAggregateTracksMoves) {
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
