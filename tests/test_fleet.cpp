// Tests for the cross-round incremental scheduling core (core/fleet.hpp):
//
//   - the headline differential: a persistent FleetState driven through
//     many mutated rounds must yield bit-identical score cells and
//     hill-climb decisions to the reference model's full read every round;
//   - power-off ranking agreement between the two modes, with idle hosts
//     that are quarantined or breaker-vetoed;
//   - end-to-end run identity (incremental vs reference policy across the
//     SB configurations and both solvers);
//   - models that grow and shrink round to round over one FleetState
//     match the reference;
//   - copy-on-touch plan rows: random move sequences leave the fleet
//     bitwise as it was once the model is gone, and one planner per fleet
//     (death tests);
//   - targeted dirty-journal behavior: maintenance flips, journal
//     deduplication, clean rounds re-reading nothing, dirt the journal
//     cannot see (clock-aged in-flight operations, breaker vetoes that
//     flip with the clock or inside the resilience controller), and the
//     reference model leaving the journal alone;
//   - the power-off ranking of one controller pass: picks equal to the
//     reference's when hosts are shed in one power controller update (on
//     a 1,000-host mixed fleet too, and under SB-full with aggregates on
//     both sides of the -1 floor), and when the pass is broken by a queue
//     change, a dispatched event, a clock move, a round in between, a
//     journalled non-pick host or a caller that sheds another host (each
//     forces a new ranking); one ranking
//     and at most one aggregate per distinct idle spec per pass; the
//     idle-candidate precondition (death test);
//   - block summaries: margin maxima per block, and FleetState::extrema()
//     against a scan of the fleet in host order;
//   - the kFleetSnapshot / kFleetIndex invariant rules: clean state passes,
//     seeded corruptions trip them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score_based_policy.hpp"
#include "core/score_matrix.hpp"
#include "experiments/runner.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "sched/power_controller.hpp"
#include "test_random_instances.hpp"
#include "validate/invariant_checker.hpp"

namespace easched::core {
namespace {

using datacenter::HostId;
using datacenter::VmId;
using easched::testing::make_job;
using easched::testing::make_random_instance;
using easched::testing::RandomInstance;
using easched::testing::SmallDc;

// ---- model comparison -------------------------------------------------------
// Both modes index rows by HostId, so cells, traces and plans compare raw.

/// Bitwise cell equality between an incremental and a reference model of
/// the same round, plus column identity and the all-inf guarantee for
/// non-placeable rows.
void expect_models_equal(const ScoreModel& inc, const ScoreModel& ref,
                         const datacenter::Datacenter& dc) {
  ASSERT_FALSE(inc.reference());
  ASSERT_TRUE(ref.reference());
  ASSERT_EQ(inc.rows(), ref.rows());
  ASSERT_EQ(inc.cols(), ref.cols());
  for (int c = 0; c < ref.cols(); ++c) {
    ASSERT_EQ(inc.vm_at(c), ref.vm_at(c)) << "column order diverged";
    ASSERT_EQ(inc.movable(c), ref.movable(c));
    ASSERT_EQ(inc.original_row(c), ref.original_row(c));
  }
  for (int r = 0; r < ref.virtual_row(); ++r) {
    ASSERT_EQ(inc.placeable(r), dc.placeable(ref.host_at(r)));
    for (int c = 0; c < ref.cols(); ++c) {
      // ASSERT_EQ at zero tolerance: both modes run the same arithmetic.
      ASSERT_EQ(inc.cell(r, c), ref.cell(r, c))
          << "cell diverged at host " << r << ", col " << c;
      if (!inc.placeable(r)) {
        ASSERT_TRUE(is_inf_score(inc.cell(r, c)))
            << "non-placeable host " << r << " has a finite cell";
      }
    }
  }
}

/// Trace/plan equality between two solves: same moves with bit-identical
/// deltas, same final plan.
void expect_same_decisions(const HillClimbStats& sa, const HillClimbStats& sb,
                           const ScoreModel& ma, const ScoreModel& mb) {
  ASSERT_EQ(sa.trace.size(), sb.trace.size()) << "move counts diverged";
  for (std::size_t i = 0; i < sb.trace.size(); ++i) {
    ASSERT_TRUE(sa.trace[i] == sb.trace[i]) << "move " << i;
  }
  EXPECT_EQ(sa.moves, sb.moves);
  EXPECT_EQ(sa.migration_moves, sb.migration_moves);
  EXPECT_EQ(sa.hit_move_limit, sb.hit_move_limit);
  EXPECT_EQ(sa.total_gain, sb.total_gain);  // same deltas, same order
  ASSERT_EQ(ma.cols(), mb.cols());
  for (int c = 0; c < mb.cols(); ++c) {
    ASSERT_EQ(ma.plan_row(c), mb.plan_row(c)) << "plans diverge at col " << c;
  }
}

// ---- round fuzzing ----------------------------------------------------------

workload::Job random_job(support::Rng& rng, double submit) {
  workload::Job job =
      make_job(100.0 * static_cast<double>(rng.uniform_int(1, 3)),
               rng.uniform(128, 1200), rng.uniform(2000, 60000),
               rng.uniform(1.2, 2.0), submit);
  if (rng.uniform01() < 0.3) job.fault_tolerance = rng.uniform01();
  if (rng.uniform01() < 0.1) job.software |= workload::kSwKvm;
  if (rng.uniform01() < 0.05) job.arch = workload::Arch::kPpc64;
  return job;
}

HillClimbLimits random_limits(support::Rng& rng) {
  HillClimbLimits limits;
  if (rng.uniform01() < 0.3) {
    limits.max_moves = static_cast<int>(rng.uniform_int(1, 6));
  }
  if (rng.uniform01() < 0.3) {
    limits.max_migration_moves = static_cast<int>(rng.uniform_int(0, 3));
  }
  if (rng.uniform01() < 0.3) limits.min_migration_gain = 35;
  return limits;
}

/// What the policy does between rounds, compressed: place the queued VMs
/// the (already-validated) plan put on real hosts, so the next round sees
/// the datacenter the decisions produced.
void apply_queued_placements(const ScoreModel& model, SmallDc& f,
                             std::vector<VmId>& queue) {
  std::vector<VmId> placed;
  for (int c = 0; c < model.cols(); ++c) {
    if (model.original_row(c) != model.virtual_row()) continue;
    const int plan = model.plan_row(c);
    if (plan == model.virtual_row()) continue;
    const HostId h = model.host_at(plan);
    const VmId v = model.vm_at(c);
    if (!f.dc.placeable(h) || !f.dc.fits(h, v)) continue;
    f.dc.place(v, h);
    placed.push_back(v);
  }
  std::erase_if(queue, [&placed](VmId v) {
    return std::find(placed.begin(), placed.end(), v) != placed.end();
  });
}

/// Random inter-round churn: advance the clock (operations complete, jobs
/// finish — all journaled through reallocate), flip maintenance on a
/// random host, admit fresh jobs.
void mutate_between_rounds(support::Rng& rng, SmallDc& f,
                           std::vector<VmId>& queue,
                           std::vector<unsigned char>& maint) {
  f.simulator.run_until(f.simulator.now() + rng.uniform(30, 1500));
  if (rng.uniform01() < 0.35) {
    const HostId h =
        static_cast<HostId>(rng.uniform_int(0, f.dc.num_hosts() - 1));
    maint[h] ^= 1;
    f.dc.set_maintenance(h, maint[h] != 0);
  }
  const int fresh = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < fresh; ++i) {
    queue.push_back(f.dc.admit_job(random_job(rng, f.simulator.now())));
  }
}

class FleetDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The tentpole guarantee: a FleetState carried across mutated rounds
// produces the exact cells and the exact decisions of a full read. The
// reference model is built before the refresh each round: its full read
// must leave the dirty journal for the refresh to consume.
TEST_P(FleetDifferential, MultiRoundCellsAndDecisionsMatchLegacy) {
  const std::uint64_t seed = GetParam();
  support::Rng rng{seed};
  for (int instance = 0; instance < 12; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    SmallDc& f = *inst.fixture;
    std::vector<VmId> queue = inst.queue;
    std::vector<unsigned char> maint(f.dc.num_hosts(), 0);
    FleetState fleet;  // persists across every round of this instance

    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      ScoreModel rm(f.dc, queue, inst.params, inst.migration);
      fleet.refresh(f.dc);
      EXPECT_EQ(f.dc.fleet_dirty_count(), 0u);  // refresh drained it

      ScoreModel fm(fleet, f.dc, queue, inst.params, inst.migration);
      expect_models_equal(fm, rm, f.dc);
      if (::testing::Test::HasFatalFailure()) return;

      const HillClimbLimits limits = random_limits(rng);
      const HillClimbStats sf = hill_climb(fm, limits);
      const HillClimbStats sr = hill_climb(rm, limits);
      expect_same_decisions(sf, sr, fm, rm);
      if (::testing::Test::HasFatalFailure()) return;

      apply_queued_placements(rm, f, queue);
      mutate_between_rounds(rng, f, queue, maint);
    }
  }
}

// A fresh FleetState (the full-init path of refresh()) and the reference
// agree on one round under randomized solver limits.
TEST_P(FleetDifferential, FreshFleetRoundMatchesReference) {
  const std::uint64_t seed = GetParam() * 6151 + 11;
  support::Rng rng{seed};
  for (int instance = 0; instance < 10; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    SmallDc& f = *inst.fixture;

    FleetState fs;
    fs.refresh(f.dc);
    ScoreModel m_ref(f.dc, inst.queue, inst.params, inst.migration);
    ScoreModel m_inc(fs, f.dc, inst.queue, inst.params, inst.migration);

    const HillClimbLimits limits = random_limits(rng);
    const HillClimbStats s_ref = hill_climb(m_ref, limits);
    const HillClimbStats s_inc = hill_climb(m_inc, limits);

    expect_same_decisions(s_inc, s_ref, m_inc, m_ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Successive models plan on the same fleet rows and restore them. Swing
// the model size over one FleetState — a large
// migration model, a small queue-only one, the large one again — and hold
// every cell to a fresh reference model.
TEST(FleetScratch, ModelsThatShrinkAndGrowNeverReadStaleCells) {
  datacenter::DatacenterConfig base;
  const datacenter::HostSpec specs[] = {
      datacenter::HostSpec::fast(), datacenter::HostSpec::medium(),
      datacenter::HostSpec::slow(), datacenter::HostSpec::low_power()};
  for (int i = 0; i < 8; ++i) base.hosts.push_back(specs[i % 4]);
  SmallDc f(8, base);
  for (int i = 0; i < 6; ++i) {
    f.admit_and_place(make_job(50.0 + 25.0 * i, 256.0 + 64.0 * i),
                      static_cast<HostId>(i));
  }
  f.simulator.run_until(400.0);  // creations done: the VMs are columns
  std::vector<VmId> big_queue;
  for (int i = 0; i < 3; ++i) {
    big_queue.push_back(f.dc.admit_job(
        make_job(100.0 * (i + 1), 300.0 + 200.0 * i, 5000, 1.5,
                 f.simulator.now())));
  }
  const std::vector<VmId> small_queue = {big_queue.back()};
  ScoreParams params;
  params.use_fault = true;

  struct Build {
    const std::vector<VmId>* queue;
    bool migration;
  };
  const Build swing[] = {{&big_queue, true}, {&small_queue, false},
                         {&big_queue, true}, {&small_queue, true},
                         {&big_queue, false}};
  FleetState fleet;
  int step = 0;
  for (const Build& b : swing) {
    SCOPED_TRACE(::testing::Message() << "build " << step++);
    fleet.refresh(f.dc);
    const ScoreModel inc(fleet, f.dc, *b.queue, params, b.migration);
    const ScoreModel ref(f.dc, *b.queue, params, b.migration);
    expect_models_equal(inc, ref, f.dc);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- copy-on-touch plan rows ------------------------------------------------

/// Bitwise equality of two vectors' elements.
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Bitwise equality of two RowExtrema, field by field (the struct has
/// padding, so it cannot be compared with one memcmp).
bool same_bits(const RowExtrema& a, const RowExtrema& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.any_placeable == b.any_placeable &&
         bits(a.min_cc) == bits(b.min_cc) && bits(a.min_cm) == bits(b.min_cm) &&
         bits(a.min_conc) == bits(b.min_conc) &&
         bits(a.min_rel) == bits(b.min_rel) && bits(a.max_rel) == bits(b.max_rel);
}

/// Bitwise equality of two BlockSummary values.
bool same_bits(const BlockSummary& a, const BlockSummary& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.max_free_cpu) == bits(b.max_free_cpu) &&
         bits(a.max_free_mem) == bits(b.max_free_mem) &&
         same_bits(a.extrema, b.extrema);
}

/// Bitwise equality of two fleets' block summaries.
void expect_same_blocks(const std::vector<BlockSummary>& a,
                        const std::vector<BlockSummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t blk = 0; blk < a.size(); ++blk) {
    EXPECT_TRUE(same_bits(a[blk], b[blk])) << "block " << blk;
  }
}

/// Everything a planning model may write to, copied before the model.
struct FleetCopy {
  FleetSnapshot snap;
  std::vector<BlockSummary> blocks;

  explicit FleetCopy(const FleetState& fleet)
      : snap(fleet.snapshot()), blocks(fleet.blocks()) {}
};

/// Every snapshot field and block summary of `fleet` is bitwise what
/// `before` copied.
void expect_fleet_unchanged(const FleetCopy& before, const FleetState& fleet) {
  const FleetSnapshot& a = before.snap;
  const FleetSnapshot& b = fleet.snapshot();
  EXPECT_TRUE(same_bits(a.placeable, b.placeable));
  EXPECT_TRUE(same_bits(a.cpu_cap, b.cpu_cap));
  EXPECT_TRUE(same_bits(a.mem_cap, b.mem_cap));
  EXPECT_TRUE(same_bits(a.cpu_res, b.cpu_res));
  EXPECT_TRUE(same_bits(a.mem_res, b.mem_res));
  EXPECT_TRUE(same_bits(a.vm_count, b.vm_count));
  EXPECT_TRUE(same_bits(a.running_demand, b.running_demand));
  EXPECT_TRUE(same_bits(a.mgmt_demand, b.mgmt_demand));
  EXPECT_TRUE(same_bits(a.conc_remaining_s, b.conc_remaining_s));
  EXPECT_TRUE(same_bits(a.creation_cost, b.creation_cost));
  EXPECT_TRUE(same_bits(a.migration_cost, b.migration_cost));
  EXPECT_TRUE(same_bits(a.reliability, b.reliability));
  EXPECT_TRUE(same_bits(a.arch, b.arch));
  EXPECT_TRUE(same_bits(a.software, b.software));
  expect_same_blocks(before.blocks, fleet.blocks());
}

class FleetPlanRows : public ::testing::TestWithParam<std::uint64_t> {};

// A model plans on the fleet's rows in place and writes back what it
// touched when it is destroyed. Random move sequences over a 100-host
// fleet (four argmin blocks) with running VMs, a host in maintenance and
// queued VMs: evictions to the virtual row and back home, and one hot row
// touched over and over. After each model every snapshot field and block
// summary is bitwise what it was, and the fleet rules report nothing. Six
// models in a row per fleet, with churn and a refresh between them.
TEST_P(FleetPlanRows, RandomMovesRestoreTheFleetBitwise) {
  support::Rng rng{GetParam()};
  constexpr std::size_t kHosts = 100;
  datacenter::DatacenterConfig base;
  const datacenter::HostSpec kinds[] = {
      datacenter::HostSpec::fast(), datacenter::HostSpec::medium(),
      datacenter::HostSpec::slow(), datacenter::HostSpec::low_power()};
  for (std::size_t i = 0; i < kHosts; ++i) {
    datacenter::HostSpec spec = kinds[rng.uniform_int(0, 3)];
    spec.reliability = rng.uniform(0.8, 1.0);
    base.hosts.push_back(spec);
  }
  SmallDc f(kHosts, base);
  for (int i = 0; i < 60; ++i) {
    const VmId v = f.dc.admit_job(random_job(rng, 0));
    const auto h = static_cast<HostId>(rng.uniform_int(0, kHosts - 1));
    if (f.dc.fits(h, v)) f.dc.place(v, h);
  }
  f.simulator.run_until(400.0);
  f.dc.set_maintenance(static_cast<HostId>(rng.uniform_int(0, kHosts - 1)),
                       true);
  std::vector<VmId> queue;
  for (int i = 0; i < 8; ++i) {
    queue.push_back(f.dc.admit_job(random_job(rng, f.simulator.now())));
  }

  FleetState fleet;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(::testing::Message() << "model " << round);
    fleet.refresh(f.dc);
    const FleetCopy before(fleet);
    {
      ScoreModel m(fleet, f.dc, queue, ScoreParams{},
                   /*migration_enabled=*/true);
      ASSERT_GT(m.cols(), static_cast<int>(queue.size()));  // running too
      const auto hot = static_cast<int>(rng.uniform_int(0, kHosts - 1));
      int moves = 0;
      for (int step = 0; step < 300; ++step) {
        const auto c = static_cast<int>(rng.uniform_int(0, m.cols() - 1));
        const double u = rng.uniform01();
        int r = static_cast<int>(rng.uniform_int(0, m.virtual_row() - 1));
        if (u < 0.2) {
          r = m.virtual_row();
        } else if (u < 0.35) {
          r = m.original_row(c);  // back home, from the virtual row too
        } else if (u < 0.65) {
          r = hot;
        }
        if (r == m.plan_row(c)) continue;
        m.move(r, c);
        ++moves;
      }
      EXPECT_GT(moves, 100);
      EXPECT_TRUE(fleet.planning());
    }
    EXPECT_FALSE(fleet.planning());
    expect_fleet_unchanged(before, fleet);
    validate::InvariantChecker ck;
    ck.check_fleet(fleet, f.dc, f.simulator.now());
    EXPECT_TRUE(ck.ok());
    if (::testing::Test::HasFailure()) return;
    f.simulator.run_until(f.simulator.now() + 300.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetPlanRows, ::testing::Values(1u, 2u, 3u));

/// One queued VM on a 3-host fleet, refreshed: the smallest fleet a model
/// can plan on.
struct PlanFixture {
  SmallDc f{3};
  std::vector<VmId> queue{f.dc.admit_job(make_job())};
  FleetState fleet;
  PlanFixture() { fleet.refresh(f.dc); }
};

// One planner per fleet: while a model has un-restored rows, the fleet
// cannot be refreshed or re-read, no model can be built on it and no other
// model may plan on it.
TEST(FleetPlanRowsDeathTest, RefreshWhileAModelPlansAborts) {
  PlanFixture p;
  ScoreModel m(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
  m.move(0, 0);
  EXPECT_DEATH(p.fleet.refresh(p.f.dc), "planning");
}

TEST(FleetPlanRowsDeathTest, ReadAllWhileAModelPlansAborts) {
  PlanFixture p;
  ScoreModel m(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
  m.move(1, 0);
  EXPECT_DEATH(p.fleet.read_all(p.f.dc), "planning");
}

TEST(FleetPlanRowsDeathTest, SecondModelMovingAborts) {
  PlanFixture p;
  ScoreModel a(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
  ScoreModel b(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
  a.move(0, 0);
  EXPECT_DEATH(b.move(1, 0), "planner_");
}

TEST(FleetPlanRowsDeathTest, NewModelWhileAModelPlansAborts) {
  PlanFixture p;
  ScoreModel a(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
  a.move(2, 0);
  EXPECT_DEATH(ScoreModel(p.fleet, p.f.dc, p.queue, ScoreParams{}, false),
               "planning");
}

// Models that never move are not planners: any number may be alive
// together, and one that plans after its peers were built restores the
// fleet for the next.
TEST(FleetPlanRows, ModelsThatNeverMoveMayCoexist) {
  PlanFixture p;
  const FleetCopy before(p.fleet);
  {
    ScoreModel a(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
    ScoreModel b(p.fleet, p.f.dc, p.queue, ScoreParams{}, false);
    EXPECT_FALSE(p.fleet.planning());
    b.move(1, 0);
    b.move(b.virtual_row(), 0);
    b.move(1, 0);
    EXPECT_TRUE(p.fleet.planning());
  }
  EXPECT_FALSE(p.fleet.planning());
  expect_fleet_unchanged(before, p.fleet);
  p.fleet.refresh(p.f.dc);  // legal again
}

// ---- dirty-journal behavior -------------------------------------------------

TEST(FleetDirty, RefreshPicksUpMaintenanceFlip) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(400.0);

  FleetState fleet;
  fleet.refresh(f.dc);
  ASSERT_EQ(fleet.snapshot().placeable[1], 1);

  f.dc.set_maintenance(1, true);
  EXPECT_GE(f.dc.fleet_dirty_count(), 1u);
  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.snapshot().placeable[1], 0);
  EXPECT_TRUE(same_bits(fleet.blocks()[0],
                        summarize_block(fleet.snapshot(), 0)));
  EXPECT_GE(fleet.stats().last_reread, 1u);

  f.dc.set_maintenance(1, false);
  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.snapshot().placeable[1], 1);
  EXPECT_TRUE(same_bits(fleet.blocks()[0],
                        summarize_block(fleet.snapshot(), 0)));
}

TEST(FleetDirty, JournalDeduplicates) {
  SmallDc f(3);
  FleetState fleet;
  fleet.refresh(f.dc);
  ASSERT_EQ(f.dc.fleet_dirty_count(), 0u);

  f.dc.set_maintenance(2, true);
  f.dc.set_maintenance(2, false);
  f.dc.set_maintenance(2, true);
  EXPECT_EQ(f.dc.fleet_dirty_count(), 1u);  // bounded by num_hosts
}

// The reference model reads every host itself; the journal's single
// consumer is the incremental FleetState, which must still see the flip.
TEST(FleetDirty, ReferenceModelLeavesTheJournalAlone) {
  SmallDc f(3);
  FleetState fleet;
  fleet.refresh(f.dc);

  f.dc.set_maintenance(1, true);
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);
  const ScoreModel ref(f.dc, {}, ScoreParams{}, /*migration_enabled=*/false);
  EXPECT_FALSE(ref.placeable(1));
  EXPECT_EQ(f.dc.fleet_dirty_count(), 1u);

  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.snapshot().placeable[1], 0);
  EXPECT_EQ(fleet.stats().last_reread, 1u);
}

// A round with no datacenter changes re-reads nothing, and the matrix it
// produces is byte-for-byte the previous round's.
TEST(FleetDirty, CleanRoundRereadsNothingAndMatrixIsByteStable) {
  SmallDc f(4);
  f.admit_and_place(make_job(), 0);
  f.admit_and_place(make_job(200, 800), 1);
  f.simulator.run_until(400.0);  // operations settle: no force-rereads left
  std::vector<VmId> queue = {f.dc.admit_job(make_job(100, 256, 5000, 1.5,
                                                     f.simulator.now())),
                             f.dc.admit_job(make_job(200, 512, 8000, 1.5,
                                                     f.simulator.now()))};
  const ScoreParams params;

  FleetState fleet;
  fleet.refresh(f.dc);
  ScoreModel a(fleet, f.dc, queue, params, /*migration_enabled=*/true);
  std::vector<double> cells_a;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) cells_a.push_back(a.cell(r, c));
  }

  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.stats().last_reread, 0u);  // clean dirty set

  ScoreModel b(fleet, f.dc, queue, params, /*migration_enabled=*/true);
  std::size_t i = 0;
  for (int r = 0; r < b.rows(); ++r) {
    for (int c = 0; c < b.cols(); ++c) {
      ASSERT_EQ(b.cell(r, c), cells_a[i++]) << "matrix drifted across a "
                                               "clean round at (" << r
                                            << ", " << c << ")";
    }
  }
}

// An in-flight operation's Pconc contribution ages with the clock without
// any Datacenter mutation; refresh's busy set must catch it.
TEST(FleetDirty, InFlightOperationAgesWithClock) {
  SmallDc f(2);
  const VmId v = f.dc.admit_job(make_job());
  f.dc.place(v, 0);  // creation now in flight on host 0

  FleetState fleet;
  fleet.refresh(f.dc);
  const double conc0 = fleet.snapshot().conc_remaining_s[0];
  ASSERT_GT(conc0, 0.0);

  // Advance the clock to just before the creation completes: nothing is
  // dispatched, nothing journaled — but the remaining time shrank.
  f.simulator.run_until(f.simulator.now() + conc0 * 0.5);
  fleet.refresh(f.dc);
  EXPECT_GE(fleet.stats().last_reread, 1u);  // the busy set re-read it
  EXPECT_LT(fleet.snapshot().conc_remaining_s[0], conc0);

  // And the refreshed state satisfies the snapshot rule at the new time.
  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  EXPECT_TRUE(ck.ok());
}

/// Bitwise equality of the refreshed snapshot and block summaries with a
/// fresh full read of `dc` (FleetState::read_all).
void expect_matches_full_read(const FleetState& fleet,
                              const datacenter::Datacenter& dc) {
  FleetState fresh;
  fresh.read_all(dc);
  const auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  const FleetSnapshot& a = fleet.snapshot();
  const FleetSnapshot& b = fresh.snapshot();
  EXPECT_TRUE(same(a.placeable, b.placeable));
  EXPECT_TRUE(same(a.cpu_cap, b.cpu_cap));
  EXPECT_TRUE(same(a.mem_cap, b.mem_cap));
  EXPECT_TRUE(same(a.cpu_res, b.cpu_res));
  EXPECT_TRUE(same(a.mem_res, b.mem_res));
  EXPECT_TRUE(same(a.vm_count, b.vm_count));
  EXPECT_TRUE(same(a.running_demand, b.running_demand));
  EXPECT_TRUE(same(a.mgmt_demand, b.mgmt_demand));
  EXPECT_TRUE(same(a.conc_remaining_s, b.conc_remaining_s));
  EXPECT_TRUE(same(a.creation_cost, b.creation_cost));
  EXPECT_TRUE(same(a.migration_cost, b.migration_cost));
  EXPECT_TRUE(same(a.reliability, b.reliability));
  EXPECT_TRUE(same(a.arch, b.arch));
  EXPECT_TRUE(same(a.software, b.software));
  expect_same_blocks(fleet.blocks(), fresh.blocks());
}

// Breaker vetoes change placeability without any Datacenter mutation: the
// breaker opens inside the resilience controller, its half-open probe
// delay elapses with the clock, a probe goes in flight and clears, and the
// breaker closes back to Healthy. No step is journalled, and after each
// the refreshed snapshot must still be a full read.
TEST(FleetDirty, BreakerVetoesFlipWithoutTheJournal) {
  constexpr HostId kHost = 1;
  constexpr double kProbeAfter = 600;
  SmallDc f(4);
  resilience::ResilienceConfig rcfg;
  rcfg.enabled = true;
  rcfg.breakers.threshold = 1;
  rcfg.breakers.probe_after_s = kProbeAfter;
  resilience::ResilienceController rc(rcfg, f.recorder, f.dc.num_hosts());
  f.recorder.resilience = &rc;

  FleetState fleet;
  fleet.refresh(f.dc);
  const auto step = [&](const char* what, bool placeable) {
    SCOPED_TRACE(what);
    EXPECT_EQ(f.dc.fleet_dirty_count(), 0u) << "step was journalled";
    fleet.refresh(f.dc);
    EXPECT_EQ(fleet.snapshot().placeable[kHost], placeable ? 1 : 0);
    expect_matches_full_read(fleet, f.dc);
  };

  rc.note_op_failure(kHost, f.simulator.now());
  step("breaker opens", false);
  f.simulator.run_until(f.simulator.now() + kProbeAfter);
  step("probe delay elapses", true);
  rc.note_op_start(kHost, f.simulator.now());
  step("probe in flight", false);
  rc.note_op_failure(kHost, f.simulator.now());
  step("probe fails and clears: re-opened", false);
  f.simulator.run_until(f.simulator.now() + kProbeAfter);
  step("probe delay elapses again", true);
  rc.note_op_start(kHost, f.simulator.now());
  step("second probe in flight", false);
  rc.note_op_success(kHost, f.simulator.now());
  ASSERT_EQ(rc.health(kHost), resilience::HostHealth::kHealthy);
  step("probe succeeds: breaker closes to Healthy", true);

  // Every breaker is Healthy and no operation is in flight: the next
  // round looks at nothing outside the journal.
  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.stats().last_out_of_band, 0u);
  EXPECT_EQ(fleet.stats().last_reread, 0u);
}

// An in-flight operation ages with the clock, unjournalled, until its
// completion is journalled; the busy set re-reads the host every round in
// between and lets it go once the operation is done.
TEST(FleetDirty, BusyHostAgesThenCompletes) {
  SmallDc f(3);
  FleetState fleet;
  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.stats().last_out_of_band, 0u);

  const VmId v = f.dc.admit_job(make_job());
  f.dc.place(v, 2);  // journalled: the creation starts
  fleet.refresh(f.dc);
  const double conc0 = fleet.snapshot().conc_remaining_s[2];
  ASSERT_GT(conc0, 0.0);
  expect_matches_full_read(fleet, f.dc);

  for (int i = 1; i <= 3; ++i) {
    f.simulator.run_until(f.simulator.now() + conc0 * 0.2);
    ASSERT_EQ(f.dc.fleet_dirty_count(), 0u);  // aging is not journalled
    fleet.refresh(f.dc);
    EXPECT_EQ(fleet.stats().last_out_of_band, 1u);
    EXPECT_EQ(fleet.stats().last_reread, 1u);
    EXPECT_LT(fleet.snapshot().conc_remaining_s[2], conc0);
    expect_matches_full_read(fleet, f.dc);
  }

  f.simulator.run_until(f.simulator.now() + conc0);  // creation completes
  ASSERT_EQ(f.dc.vm(v).state, datacenter::VmState::kRunning);
  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.snapshot().conc_remaining_s[2], 0.0);
  expect_matches_full_read(fleet, f.dc);

  fleet.refresh(f.dc);  // idle again: nothing outside the journal
  EXPECT_EQ(fleet.stats().last_out_of_band, 0u);
  EXPECT_EQ(fleet.stats().last_reread, 0u);
}

// ---- power-off ranking ------------------------------------------------------

// Idle-host ranking runs on the round's model in both modes. Two idle hosts
// are on but not placeable — one quarantined after a failed creation, one
// vetoed by an open circuit breaker — so their rows are all-kInf and would
// aggregate highest. Both modes must skip them while a placeable candidate
// is left, and must agree on every pick as the hosts are shed one by one.
TEST(FleetPowerOff, RankingMatchesReferenceAndSkipsNonPlaceableHosts) {
  constexpr HostId kLemon = 1;   // quarantined by its failed creation
  constexpr HostId kBroken = 4;  // breaker opened by a failed operation
  faults::FaultPlan plan;
  plan.enabled = true;
  plan.spec(faults::FaultOp::kCreate).fail_prob = 1e-9;
  plan.lemons.push_back({kLemon, 1e12});  // capped: every creation fails
  plan.quarantine.failure_budget = 1;
  plan.quarantine.cooldown_s = 1e9;
  faults::FaultInjector injector(plan);
  datacenter::DatacenterConfig base;
  base.fault_injector = &injector;
  SmallDc f(8, base);

  resilience::ResilienceConfig rcfg;
  rcfg.enabled = true;
  rcfg.breakers.threshold = 1;
  rcfg.breakers.probe_after_s = 1e9;
  resilience::ResilienceController rc(rcfg, f.recorder, f.dc.num_hosts());
  f.recorder.resilience = &rc;

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();  // migration: cols() > 0
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{3};
  std::vector<VmId> all;
  const auto queued = [&] {
    std::vector<VmId> q;
    for (const VmId v : all) {
      if (f.dc.vm(v).state == datacenter::VmState::kQueued) q.push_back(v);
    }
    return q;
  };

  // Churned multi-round history: the lemon's failed creation quarantines
  // it, then both policies schedule the arrivals round by round.
  all.push_back(f.admit_and_place(make_job(100, 512, 50000), kLemon));
  f.simulator.run_until(200.0);
  ASSERT_TRUE(f.dc.host(kLemon).quarantined);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 2; ++i) {
      all.push_back(f.dc.admit_job(
          make_job(100, 512, 50000, 1.5, f.simulator.now())));
    }
    const std::vector<VmId> queue = queued();
    const sched::SchedContext ctx{f.dc, queue, rng};
    const auto ref_actions = ref.schedule(ctx);
    const auto inc_actions = inc.schedule(ctx);
    ASSERT_EQ(inc_actions.size(), ref_actions.size());
    for (std::size_t i = 0; i < ref_actions.size(); ++i) {
      ASSERT_EQ(inc_actions[i].vm, ref_actions[i].vm);
      ASSERT_EQ(inc_actions[i].host, ref_actions[i].host);
      if (ref_actions[i].kind == sched::Action::Kind::kPlace) {
        f.dc.place(ref_actions[i].vm, ref_actions[i].host);
      }
    }
    f.simulator.run_until(f.simulator.now() + 600.0);
  }
  rc.note_op_failure(kBroken, f.simulator.now());

  std::vector<HostId> idle;
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
    if (f.dc.host(h).is_idle_on()) idle.push_back(h);
  }
  ASSERT_NE(std::find(idle.begin(), idle.end(), kLemon), idle.end());
  ASSERT_NE(std::find(idle.begin(), idle.end(), kBroken), idle.end());
  ASSERT_FALSE(f.dc.placeable(kLemon));
  ASSERT_FALSE(f.dc.placeable(kBroken));

  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  int placeable_picks = 0;
  while (!idle.empty()) {
    const bool any_placeable =
        std::any_of(idle.begin(), idle.end(),
                    [&f](HostId h) { return f.dc.placeable(h); });
    const HostId r = ref.choose_power_off(ctx, idle);
    const HostId h = inc.choose_power_off(ctx, idle);
    ASSERT_EQ(h, r) << "modes disagree with " << idle.size() << " idle";
    if (any_placeable) {
      ASSERT_TRUE(f.dc.placeable(h)) << "picked non-placeable host " << h;
      ++placeable_picks;
    }
    f.dc.power_off(h);
    idle.erase(std::find(idle.begin(), idle.end(), h));
  }
  EXPECT_GE(placeable_picks, 2);
}

/// Every decision of one policy: each action a round returned, with its
/// time, and each power-off pick.
struct PolicyLog {
  std::vector<std::tuple<double, sched::Action::Kind, VmId, HostId>> actions;
  std::vector<HostId> picks;
  ScoreBasedPolicy::PowerOffStats power_off;  ///< as of the last pick
};

/// Forwards to a ScoreBasedPolicy and records its decisions in a PolicyLog,
/// so two runs can be compared decision by decision.
class RecordingPolicy final : public sched::Policy {
 public:
  RecordingPolicy(ScoreBasedConfig cfg, PolicyLog& log)
      : inner_(std::move(cfg)), log_(log) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_migration() const override {
    return inner_.uses_migration();
  }
  std::vector<sched::Action> schedule(const sched::SchedContext& ctx) override {
    std::vector<sched::Action> actions = inner_.schedule(ctx);
    for (const sched::Action& a : actions) {
      log_.actions.emplace_back(ctx.dc.simulator().now(), a.kind, a.vm,
                                a.host);
    }
    return actions;
  }
  HostId choose_power_off(const sched::SchedContext& ctx,
                          const std::vector<HostId>& idle) override {
    log_.picks.push_back(inner_.choose_power_off(ctx, idle));
    log_.power_off = inner_.power_off_stats();
    return log_.picks.back();
  }

 private:
  ScoreBasedPolicy inner_;
  PolicyLog& log_;
};

/// One power controller update that sheds every idle host it may.
struct ShedPass {
  PolicyLog log;
  std::uint64_t passes = 0;  ///< the run counter sched.power_off_passes
};

/// Sheds in one power controller update on a fleet of `base.hosts`, with
/// `vms` placed first (a job and its host each) and lambda_min = 0.9, so
/// every idle host but the last few goes off. `prepare` runs on the
/// fixture before the update (to open breakers, say).
template <typename Prepare>
ShedPass shed_in_one_update(
    ScoreBasedConfig cfg, bool incremental,
    datacenter::DatacenterConfig base,
    const std::vector<std::pair<workload::Job, HostId>>& vms,
    Prepare prepare) {
  const std::size_t n = base.hosts.size();
  SmallDc f(n, std::move(base));
  for (const auto& [job, h] : vms) f.admit_and_place(job, h);
  f.simulator.run_until(400.0);
  prepare(f);

  cfg.incremental = incremental;
  ShedPass out;
  RecordingPolicy policy(cfg, out.log);
  sched::PowerControllerConfig pcfg;
  pcfg.lambda_min = 0.9;  // shed until working / online >= 0.9
  support::Rng rng{5};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  sched::PowerController(pcfg).update(ctx, f.dc, policy);
  out.passes = f.recorder.counts.power_off_passes;
  return out;
}

datacenter::DatacenterConfig mixed_classes(int n) {
  datacenter::DatacenterConfig base;
  const datacenter::HostSpec specs[] = {
      datacenter::HostSpec::fast(), datacenter::HostSpec::medium(),
      datacenter::HostSpec::slow(), datacenter::HostSpec::low_power()};
  for (int i = 0; i < n; ++i) base.hosts.push_back(specs[(i * 3) % 4]);
  return base;
}

/// Number of distinct ScoreModel::IdleRowKey fields among `hosts`.
std::size_t distinct_specs(const std::vector<datacenter::HostSpec>& hosts) {
  std::vector<std::tuple<double, double, double, double, double,
                         workload::Arch, std::uint32_t>>
      keys;
  for (const datacenter::HostSpec& h : hosts) {
    keys.emplace_back(h.cpu_capacity_pct, h.mem_mb, h.creation_cost_s,
                      h.migration_cost_s, h.reliability, h.arch, h.software);
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

const auto kNoPrepare = [](SmallDc&) {};

// The power controller sheds one choose_power_off pick at a time, all at
// one sim time; the incremental policy ranks once for the pass and serves
// each pick from the ranking. Its picks must be the reference's.
TEST(FleetPowerOff, ShedsSeveralHostsInOneUpdateLikeTheReference) {
  const std::vector<std::pair<workload::Job, HostId>> vms = {
      {make_job(100, 512, 50000), 0},
      {make_job(200, 1024, 50000), 3},
      {make_job(150, 768, 50000), 7}};
  const ShedPass ref = shed_in_one_update(ScoreBasedConfig::sb(), false,
                                          mixed_classes(10), vms, kNoPrepare);
  const ShedPass inc = shed_in_one_update(ScoreBasedConfig::sb(), true,
                                          mixed_classes(10), vms, kNoPrepare);
  ASSERT_GE(ref.log.picks.size(), 5u);
  EXPECT_EQ(inc.log.picks, ref.log.picks);
  EXPECT_EQ(inc.passes, 1u);
  EXPECT_EQ(ref.passes, 1u);
  EXPECT_EQ(inc.log.power_off.rankings, 1u);
  EXPECT_EQ(ref.log.power_off.rankings, 0u);  // the reference scans
}

// A fleet of 1,000 hosts of the evaluation classes, every other one with
// its own reliability as in the chaos_2d benchmark workload, sheds almost
// every idle host in one pass. The picks must be the reference's, pick
// for pick, from one ranking that computes at most one aggregate per
// distinct idle spec.
TEST(FleetPowerOff, ThousandHostMixedSpecPassMatchesTheReference) {
  datacenter::DatacenterConfig base;
  base.hosts = experiments::evaluation_hosts(300, 400, 300);
  for (std::size_t i = 1; i < base.hosts.size(); i += 2) {
    base.hosts[i].reliability = 0.95 + 0.04 * static_cast<double>(i % 3) / 2.0;
  }
  const std::size_t specs = distinct_specs(base.hosts);
  ASSERT_GE(specs, 6u);
  std::vector<std::pair<workload::Job, HostId>> vms;
  for (HostId h = 0; h < 1000; h += 211) {
    workload::Job job = make_job(100, 512, 50000);
    job.fault_tolerance = 0.01 * static_cast<double>(h % 7);
    vms.emplace_back(job, h);
  }
  const ShedPass ref = shed_in_one_update(ScoreBasedConfig::sb_full(), false,
                                          base, vms, kNoPrepare);
  const ShedPass inc = shed_in_one_update(ScoreBasedConfig::sb_full(), true,
                                          base, vms, kNoPrepare);
  ASSERT_GE(ref.log.picks.size(), 900u);
  ASSERT_EQ(inc.log.picks.size(), ref.log.picks.size());
  for (std::size_t i = 0; i < ref.log.picks.size(); ++i) {
    ASSERT_EQ(inc.log.picks[i], ref.log.picks[i]) << "pick " << i;
  }
  EXPECT_EQ(inc.passes, 1u);
  EXPECT_EQ(inc.log.power_off.rankings, 1u);
  EXPECT_GT(inc.log.power_off.aggregates, 0u);
  EXPECT_LE(inc.log.power_off.aggregates, specs);
}

// SB-full with a running VM that tolerates faults: the fault term makes
// the idle rows of reliable hosts aggregate at or below -1, which no pick
// takes, while the unreliable ones score above it. The lowest idle host is
// on but breaker-vetoed. Once the candidates above -1 are shed, each pick
// falls back to the list's front — first onto that non-placeable host,
// while placeable idle hosts are left. The incremental picks must be the
// reference's, pick for pick, fallbacks included.
TEST(FleetPowerOff, FloorAndFrontFallbackMatchTheReference) {
  constexpr HostId kVetoed = 0;
  constexpr HostId kBusy = 9;
  datacenter::DatacenterConfig base;
  const double reliability[] = {0.5,  0.99, 0.6,  0.95, 0.7,
                                0.9,  0.55, 0.8,  0.65, 0.99};
  for (const double rel : reliability) {
    datacenter::HostSpec spec = datacenter::HostSpec::medium();
    spec.reliability = rel;
    base.hosts.push_back(spec);
  }
  workload::Job job = make_job(100, 512, 50000);
  job.fault_tolerance = 0.3;
  const std::vector<std::pair<workload::Job, HostId>> vms = {{job, kBusy}};

  resilience::ResilienceConfig rcfg;
  rcfg.enabled = true;
  rcfg.breakers.threshold = 1;
  rcfg.breakers.probe_after_s = 1e9;
  std::vector<double> aggregates;  // reference aggregates by HostId
  const auto run = [&](bool incremental) {
    std::unique_ptr<resilience::ResilienceController> rc;
    return shed_in_one_update(
        ScoreBasedConfig::sb_full(), incremental, base, vms,
        [&](SmallDc& f) {
          rc = std::make_unique<resilience::ResilienceController>(
              rcfg, f.recorder, f.dc.num_hosts());
          f.recorder.resilience = rc.get();
          rc->note_op_failure(kVetoed, f.simulator.now());
          ASSERT_TRUE(f.dc.host(kVetoed).is_idle_on());
          ASSERT_FALSE(f.dc.placeable(kVetoed));
          const ScoreModel model(f.dc, {}, ScoreBasedConfig::sb_full().params,
                                 /*migration_enabled=*/true);
          ASSERT_EQ(model.cols(), 1);
          aggregates.clear();
          for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
            aggregates.push_back(model.row_aggregate(static_cast<int>(h)));
          }
        });
  };
  const ShedPass ref = run(false);
  const ShedPass inc = run(true);

  int above = 0;
  int at_or_below = 0;
  for (HostId h = 1; h < kBusy; ++h) {
    (aggregates[h] > -1 ? above : at_or_below) += 1;
  }
  ASSERT_GE(above, 2);
  ASSERT_GE(at_or_below, 2);
  ASSERT_EQ(ref.log.picks.size(), 9u);  // every idle host
  // The ranked picks, then the fallback onto the vetoed front host.
  const auto vetoed_at =
      std::find(ref.log.picks.begin(), ref.log.picks.end(), kVetoed);
  ASSERT_EQ(vetoed_at - ref.log.picks.begin(), above);
  for (auto it = ref.log.picks.begin(); it != vetoed_at; ++it) {
    EXPECT_GT(aggregates[*it], -1) << "host " << *it;
  }
  // The rest go in list order, lowest HostId first.
  EXPECT_TRUE(std::is_sorted(vetoed_at, ref.log.picks.end()));
  EXPECT_EQ(inc.log.picks, ref.log.picks);
  EXPECT_EQ(inc.log.power_off.rankings, 1u);
}

// The queue changes between two picks at one instant: the second call's
// queue holds a VM that fits only the big idle hosts. Nothing was
// journalled but the first pick, and no event ran, so only the queue
// tells the call apart from the pass: it must rank afresh. The small idle
// host's row turns infinite and now ranks first, where the first ranking
// had the second big host.
TEST(FleetPowerOff, QueueChangeAtOneInstantReranks) {
  constexpr HostId kBig = 1;    // idle, 800 % CPU
  constexpr HostId kBig2 = 2;   // idle, 800 % CPU
  constexpr HostId kSmall = 3;  // idle, 400 % CPU
  datacenter::DatacenterConfig base;
  datacenter::HostSpec big = datacenter::HostSpec::medium();
  big.cpu_capacity_pct = 800;
  base.hosts = {big, big, big, datacenter::HostSpec::medium()};
  SmallDc f(4, base);
  f.admit_and_place(make_job(100, 512, 50000), 0);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{7};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  std::vector<HostId> idle = {kBig, kBig2, kSmall};

  // Every row is finite; the emptier (bigger) hosts aggregate higher.
  const HostId first = ref.choose_power_off(ctx, idle);
  EXPECT_EQ(first, kBig);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), first);
  f.dc.power_off(first);
  idle.erase(std::find(idle.begin(), idle.end(), first));
  EXPECT_EQ(ref.choose_power_off(ctx, idle), kBig2);  // the pass goes on

  const sim::SimTime t = f.simulator.now();
  const std::uint64_t dispatched = f.simulator.dispatched();
  const std::vector<VmId> queued = {f.dc.admit_job(make_job(500))};
  const sched::SchedContext grown{f.dc, queued, rng};
  ASSERT_EQ(f.simulator.now(), t);
  ASSERT_EQ(f.simulator.dispatched(), dispatched);
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);  // the first pick alone
  const HostId after = ref.choose_power_off(grown, idle);
  EXPECT_EQ(after, kSmall);
  EXPECT_EQ(inc.choose_power_off(grown, idle), after);
  EXPECT_EQ(inc.power_off_stats().rankings, 2u);
}

// An event runs between two picks at one instant and opens the breaker of
// the host the ranking holds next. A breaker veto is not journalled and
// the queue is unchanged, so only the dispatch count tells the call apart
// from the pass: it must rank afresh and skip the vetoed host.
TEST(FleetPowerOff, EventDispatchedBetweenPicksReranks) {
  SmallDc f(8, mixed_classes(8));
  resilience::ResilienceConfig rcfg;
  rcfg.enabled = true;
  rcfg.breakers.threshold = 1;
  rcfg.breakers.probe_after_s = 1e9;
  resilience::ResilienceController rc(rcfg, f.recorder, f.dc.num_hosts());
  f.recorder.resilience = &rc;
  f.admit_and_place(make_job(100, 512, 50000), 0);
  f.admit_and_place(make_job(200, 1024, 50000), 5);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();  // migration: cols() > 0
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{13};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  std::vector<HostId> idle;
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
    if (f.dc.host(h).is_idle_on()) idle.push_back(h);
  }
  ASSERT_EQ(idle.size(), 6u);

  const HostId first = ref.choose_power_off(ctx, idle);
  ASSERT_EQ(inc.choose_power_off(ctx, idle), first);
  f.dc.power_off(first);
  idle.erase(std::find(idle.begin(), idle.end(), first));
  const HostId next = ref.choose_power_off(ctx, idle);  // the ranking's next

  const sim::SimTime t = f.simulator.now();
  f.simulator.at(t, [&] { rc.note_op_failure(next, t); });
  f.simulator.run_until(t);
  ASSERT_EQ(f.simulator.now(), t);
  ASSERT_FALSE(f.dc.placeable(next));
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);  // the first pick alone

  const HostId r = ref.choose_power_off(ctx, idle);
  EXPECT_NE(r, next);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), r);
  EXPECT_EQ(inc.power_off_stats().rankings, 2u);
}

// The clock moves between two picks with no event dispatched (run_until
// past an empty stretch). A running VM's remaining time drops below one
// idle host's migration cost, which quadruples that host's Pvirt and lifts
// it from below the -1 floor to the top of the ranking. Nothing was
// journalled but the first pick, so only the clock tells the call apart
// from the pass: it must rank afresh.
TEST(FleetPowerOff, ClockMovedBetweenPicksReranks) {
  constexpr HostId kFirst = 1;  // huge migration cost: always ranks first
  constexpr HostId kRoomy = 2;  // nearly empty with the VM, cheap to move to
  constexpr HostId kTight = 3;  // full with the VM, Cm = 20 s
  datacenter::DatacenterConfig base;
  datacenter::HostSpec first = datacenter::HostSpec::medium();
  first.migration_cost_s = 1000;
  datacenter::HostSpec roomy = datacenter::HostSpec::medium();
  roomy.cpu_capacity_pct = 1600;
  roomy.migration_cost_s = 2;
  datacenter::HostSpec tight = datacenter::HostSpec::medium();
  tight.cpu_capacity_pct = 100;
  tight.migration_cost_s = 20;
  base.hosts = {datacenter::HostSpec::medium(), first, roomy, tight};
  SmallDc f(4, base);
  constexpr double kDedicated = 5000;
  f.admit_and_place(make_job(100, 512, kDedicated), 0);
  // The VM's remaining user-estimated time is 21 s, just above kTight's Cm.
  f.simulator.run_until(kDedicated - 21);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();  // migration: cols() > 0
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{19};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  std::vector<HostId> idle = {kFirst, kRoomy, kTight};

  ASSERT_EQ(ref.choose_power_off(ctx, idle), kFirst);
  ASSERT_EQ(inc.choose_power_off(ctx, idle), kFirst);
  f.dc.power_off(kFirst);
  idle.erase(idle.begin());
  ASSERT_EQ(ref.choose_power_off(ctx, idle), kRoomy);  // the pass goes on

  const std::uint64_t dispatched = f.simulator.dispatched();
  f.simulator.run_until(f.simulator.now() + 2);  // remaining time: 19 s
  ASSERT_EQ(f.simulator.dispatched(), dispatched);
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);  // the first pick alone
  const HostId r = ref.choose_power_off(ctx, idle);
  EXPECT_EQ(r, kTight);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), r);
  EXPECT_EQ(inc.power_off_stats().rankings, 2u);
}

// A consolidation round runs between two picks. Before it, the host the
// ranking holds next enters maintenance; the round's fleet refresh drains
// the journal, and one idle host is journalled after it. The journal then
// holds one host, as after one pick, but the ranking predates the drained
// change: building the round's model must drop the ranking, so the call
// ranks afresh and skips the host in maintenance.
TEST(FleetPowerOff, RoundBetweenPicksReranks) {
  SmallDc f(8, mixed_classes(8));
  f.admit_and_place(make_job(100, 512, 50000), 0);
  f.admit_and_place(make_job(200, 1024, 50000), 5);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();  // sweeps in its first round
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{23};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  std::vector<HostId> idle;
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
    if (f.dc.host(h).is_idle_on()) idle.push_back(h);
  }
  ASSERT_EQ(idle.size(), 6u);

  const HostId first = ref.choose_power_off(ctx, idle);
  ASSERT_EQ(inc.choose_power_off(ctx, idle), first);
  f.dc.power_off(first);
  idle.erase(std::find(idle.begin(), idle.end(), first));
  const HostId next = ref.choose_power_off(ctx, idle);  // the ranking's next
  f.dc.set_maintenance(next, true);
  inc.schedule(ctx);  // a consolidation sweep: builds a model
  ASSERT_EQ(f.dc.fleet_dirty_count(), 0u);
  const HostId other = idle.front() == next ? idle.back() : idle.front();
  f.dc.set_maintenance(other, true);
  f.dc.set_maintenance(other, false);
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);

  const HostId r = ref.choose_power_off(ctx, idle);
  EXPECT_NE(r, next);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), r);
  EXPECT_EQ(inc.power_off_stats().rankings, 2u);
}

// The caller sheds a host other than the pick, and drops that host from
// its list instead: the journal and the list each changed by one host, as
// in a pass, but the pick is still idle. The call must rank afresh and
// pick the reference's host (the same one again). Then the caller sheds
// the pick but drops one more host from its list: the list is shorter
// than the pass allows, so the call ranks afresh again.
TEST(FleetPowerOff, CallerShedsAnotherHostReranks) {
  SmallDc f(8, mixed_classes(8));
  f.admit_and_place(make_job(100, 512, 50000), 0);
  f.admit_and_place(make_job(200, 1024, 50000), 5);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{17};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  std::vector<HostId> idle;
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
    if (f.dc.host(h).is_idle_on()) idle.push_back(h);
  }
  ASSERT_EQ(idle.size(), 6u);

  const HostId first = ref.choose_power_off(ctx, idle);
  ASSERT_EQ(inc.choose_power_off(ctx, idle), first);
  const HostId other = first == idle.back() ? idle.front() : idle.back();
  f.dc.power_off(other);
  idle.erase(std::find(idle.begin(), idle.end(), other));
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);

  const HostId r = ref.choose_power_off(ctx, idle);
  EXPECT_EQ(r, first);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), r);
  EXPECT_EQ(inc.power_off_stats().rankings, 2u);

  f.dc.power_off(r);
  idle.erase(std::find(idle.begin(), idle.end(), r));
  const HostId next = ref.choose_power_off(ctx, idle);  // the ranking's next
  idle.erase(std::find(idle.begin(), idle.end(), next));
  const HostId r2 = ref.choose_power_off(ctx, idle);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), r2);
  EXPECT_EQ(inc.power_off_stats().rankings, 3u);
}

// Idle hosts are journalled between two picks at one sim time: each one's
// maintenance flips on and back off. The journal then holds more hosts
// than the picks, so every call ranks afresh; the picks must still be the
// reference's.
TEST(FleetPowerOff, JournalledNonPickHostForcesARebuild) {
  SmallDc f(8, mixed_classes(8));
  f.admit_and_place(make_job(100, 512, 50000), 0);
  f.admit_and_place(make_job(200, 1024, 50000), 5);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();  // migration: cols() > 0
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{11};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  std::vector<HostId> idle;
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
    if (f.dc.host(h).is_idle_on()) idle.push_back(h);
  }
  ASSERT_EQ(idle.size(), 6u);

  const sim::SimTime t = f.simulator.now();
  std::uint64_t picks = 0;
  while (idle.size() > 1) {
    const HostId r = ref.choose_power_off(ctx, idle);
    ASSERT_EQ(inc.choose_power_off(ctx, idle), r);
    ++picks;
    EXPECT_EQ(inc.power_off_stats().rankings, picks);
    f.dc.power_off(r);
    idle.erase(std::find(idle.begin(), idle.end(), r));
    for (const HostId h : idle) {
      f.dc.set_maintenance(h, true);
      f.dc.set_maintenance(h, false);
    }
    ASSERT_GT(f.dc.fleet_dirty_count(), 1u);
  }
  EXPECT_EQ(f.simulator.now(), t);
}

// A whole run: the incremental policy builds one ranking per power
// controller pass, and each ranking computes at most one aggregate per
// distinct idle spec. The reference builds none and picks alike.
TEST(FleetPowerOff, OneRankingPerControllerPass) {
  const workload::Workload jobs = easched::testing::small_week();
  const auto run = [&jobs](bool incremental, PolicyLog& log) {
    ScoreBasedConfig cfg = ScoreBasedConfig::sb();
    cfg.incremental = incremental;
    experiments::RunConfig config = easched::testing::small_config("SB");
    config.policy_instance = std::make_unique<RecordingPolicy>(cfg, log);
    return experiments::run_experiment(jobs, std::move(config));
  };
  PolicyLog ref_log;
  PolicyLog inc_log;
  const experiments::RunResult ref = run(false, ref_log);
  const experiments::RunResult inc = run(true, inc_log);
  EXPECT_EQ(inc_log.picks, ref_log.picks);
  const std::uint64_t passes = inc.report.power_off_passes;
  EXPECT_EQ(ref.report.power_off_passes, passes);
  EXPECT_GT(passes, 2u);
  EXPECT_GT(inc_log.picks.size(), passes);  // some pass sheds several
  EXPECT_EQ(inc_log.power_off.rankings, passes);
  EXPECT_EQ(ref_log.power_off.rankings, 0u);
  const std::size_t specs = distinct_specs(
      easched::testing::small_config("SB").datacenter.hosts);
  EXPECT_LE(inc_log.power_off.aggregates, specs * passes);
}

// The ranking's exactness rests on every candidate being idle: a host with
// a resident is a contract violation.
TEST(FleetPowerOffDeathTest, CandidateWithAResidentAborts) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 1);
  f.simulator.run_until(400.0);
  ScoreBasedPolicy policy(ScoreBasedConfig::sb());
  support::Rng rng{1};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  EXPECT_DEATH(policy.choose_power_off(ctx, {0, 1, 2}), "is_idle_on");
}

// ---- block summaries --------------------------------------------------------

FleetSnapshot uniform_snapshot(std::size_t n, double cap_cpu, double cap_mem) {
  FleetSnapshot snap;
  snap.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    snap.placeable[h] = 1;
    snap.cpu_cap[h] = cap_cpu;
    snap.mem_cap[h] = cap_mem;
  }
  return snap;
}

// A block's margin maxima are the maxima of its rows' free_margin()s,
// starting from -1 (a non-placeable row's margin); a changed row changes
// only its own block's summary.
TEST(FleetBlocks, MaximaAreTheRowMarginMaxima) {
  // 70 hosts = two full kArgminBlock blocks plus a partial tail.
  const std::size_t n = 70;
  FleetSnapshot snap = uniform_snapshot(n, 400, 4096);
  for (std::size_t h = 0; h < n; ++h) {
    snap.cpu_res[h] = static_cast<double>(h % 5) * 80.0;
    snap.mem_res[h] = static_cast<double>(h % 3) * 1000.0;
    if (h % 7 == 0) snap.placeable[h] = 0;
  }
  const std::size_t nblocks = num_blocks(n);
  ASSERT_EQ(nblocks, 3u);
  const auto expect_maxima = [&] {
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      double best_cpu = -1.0, best_mem = -1.0;
      const std::size_t hi = std::min(n, (blk + 1) * kArgminBlock);
      for (std::size_t h = blk * kArgminBlock; h < hi; ++h) {
        best_cpu = std::max(best_cpu, free_margin(snap.placeable[h] != 0,
                                                  snap.cpu_cap[h],
                                                  snap.cpu_res[h]));
        best_mem = std::max(best_mem, free_margin(snap.placeable[h] != 0,
                                                  snap.mem_cap[h],
                                                  snap.mem_res[h]));
      }
      const BlockSummary b = summarize_block(snap, blk);
      EXPECT_EQ(b.max_free_cpu, best_cpu) << "block " << blk;
      EXPECT_EQ(b.max_free_mem, best_mem) << "block " << blk;
    }
  };
  expect_maxima();

  // Fill every row of block 1 but one and make that one non-placeable: the
  // block then fits nothing, while blocks 0 and 2 are untouched.
  const BlockSummary block0 = summarize_block(snap, 0);
  const BlockSummary block2 = summarize_block(snap, 2);
  for (std::size_t h = 32; h < 64; ++h) {
    snap.cpu_res[h] = 400.0 * kFleetOverMargin + 1.0;
    snap.mem_res[h] = 4096.0 * kFleetOverMargin + 1.0;
  }
  snap.placeable[40] = 0;
  expect_maxima();
  EXPECT_EQ(summarize_block(snap, 1).max_free_cpu, -1.0);
  EXPECT_TRUE(same_bits(summarize_block(snap, 0), block0));
  EXPECT_TRUE(same_bits(summarize_block(snap, 2), block2));
}

// FleetState::extrema(), the blocks' extrema reduced, is bitwise one scan
// of the fleet's placeable rows in host order — signed zeros and ties
// included, since both keep the first of equal values. Placeability flips
// through maintenance; a plan move leaves the extrema alone, and a block
// with no placeable host is the identity of the reduction.
TEST(FleetBlocks, ExtremaReduceToAFleetScan) {
  constexpr std::size_t kHosts = 70;
  constexpr HostId kLow = 40;  // the fleet's lowest Cc and reliability
  support::Rng rng{7};
  const double values[] = {0.0, -0.0, 1.5, 3.0};
  datacenter::DatacenterConfig base;
  for (std::size_t h = 0; h < kHosts; ++h) {
    datacenter::HostSpec spec = datacenter::HostSpec::medium();
    spec.creation_cost_s = values[rng.uniform_int(0, 3)];
    spec.migration_cost_s = values[rng.uniform_int(0, 3)];
    spec.reliability = rng.uniform01() < 0.5 ? 0.9 : rng.uniform(0.8, 1.0);
    base.hosts.push_back(spec);
  }
  base.hosts[kLow].creation_cost_s = -2.0;
  base.hosts[kLow].reliability = 0.5;
  SmallDc f(kHosts, base);
  for (HostId h = 0; h < kHosts; ++h) {
    if (h == kLow || h == kHosts - 1 || rng.uniform01() < 0.2) {
      f.dc.set_maintenance(h, true);  // not placeable
    }
  }
  FleetState fleet;
  const auto scan = [&fleet] {
    RowExtrema x;
    for (HostId h = 0; h < fleet.snapshot().size(); ++h) {
      x.include(fleet.snapshot(), h);
    }
    return x;
  };

  fleet.refresh(f.dc);
  ASSERT_EQ(fleet.blocks().size(), 3u);
  EXPECT_TRUE(fleet.extrema().any_placeable);
  EXPECT_GT(fleet.extrema().min_cc, -2.0);
  EXPECT_TRUE(same_bits(fleet.extrema(), scan()));

  f.dc.set_maintenance(kLow, false);  // a new fleet minimum, in block 1
  fleet.refresh(f.dc);
  EXPECT_EQ(fleet.extrema().min_cc, -2.0);
  EXPECT_EQ(fleet.extrema().min_rel, 0.5);
  EXPECT_TRUE(same_bits(fleet.extrema(), scan()));

  const std::vector<VmId> queue = {f.dc.admit_job(make_job())};
  const RowExtrema block1 = fleet.blocks()[1].extrema;
  {
    ScoreModel m(fleet, f.dc, queue, ScoreParams{}, false);
    m.move(static_cast<int>(kLow), 0);
    // The planned block is re-summarized on the spot.
    EXPECT_TRUE(same_bits(fleet.blocks()[1],
                          summarize_block(fleet.snapshot(), 1)));
    EXPECT_TRUE(same_bits(fleet.blocks()[1].extrema, block1));
    EXPECT_TRUE(same_bits(fleet.extrema(), scan()));
  }

  for (HostId h = 32; h < 64; ++h) f.dc.set_maintenance(h, true);
  fleet.refresh(f.dc);
  EXPECT_FALSE(fleet.blocks()[1].extrema.any_placeable);
  EXPECT_TRUE(same_bits(fleet.extrema(), scan()));
}

// ---- invariant rules --------------------------------------------------------

std::uint64_t other_rule_count(const validate::InvariantChecker& ck,
                               validate::Rule rule) {
  std::uint64_t total = 0;
  for (int i = 0; i < validate::kNumRules; ++i) {
    if (static_cast<validate::Rule>(i) != rule) {
      total += ck.count(static_cast<validate::Rule>(i));
    }
  }
  return total;
}

TEST(FleetChecker, CleanFleetPasses) {
  SmallDc f(4);
  f.admit_and_place(make_job(), 0);
  f.admit_and_place(make_job(200, 900), 2);
  f.simulator.run_until(400.0);
  FleetState fleet;
  fleet.refresh(f.dc);

  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  EXPECT_TRUE(ck.ok());
  EXPECT_EQ(ck.checks_run(), 1u);
}

TEST(FleetChecker, CatchesCorruptedSnapshot) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 1);
  f.simulator.run_until(400.0);
  FleetState fleet;
  fleet.refresh(f.dc);
  fleet.debug_corrupt_snapshot(1, 13.0);

  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  // The block summaries were not re-summarized from the (now corrupted)
  // snapshot, so kFleetIndex may legitimately co-fire; the snapshot rule
  // is the one that names the root cause.
  EXPECT_EQ(ck.count(validate::Rule::kFleetSnapshot), 1u);
  EXPECT_FALSE(ck.ok());
}

TEST(FleetChecker, CatchesCorruptedIndex) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(400.0);
  FleetState fleet;
  fleet.refresh(f.dc);
  // A missed re-summary: block 0's free-CPU maximum is off.
  BlockSummary stale = fleet.blocks()[0];
  stale.max_free_cpu += 5.0;
  fleet.debug_set_block(0, stale);

  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  EXPECT_EQ(ck.count(validate::Rule::kFleetIndex), 1u);
  EXPECT_EQ(other_rule_count(ck, validate::Rule::kFleetIndex), 0u);
}

// Stale block extrema (the score floor's bounds) are a kFleetIndex
// violation, whichever block they are in.
TEST(FleetChecker, CatchesStaleBlockExtrema) {
  SmallDc f(40);  // a full kArgminBlock block and a partial tail block
  f.admit_and_place(make_job(), 35);
  f.simulator.run_until(400.0);
  FleetState fleet;
  fleet.refresh(f.dc);
  ASSERT_EQ(fleet.blocks().size(), 2u);
  ASSERT_TRUE(fleet.blocks()[1].extrema.any_placeable);
  BlockSummary stale = fleet.blocks()[1];
  stale.extrema.min_cc -= 5.0;
  fleet.debug_set_block(1, stale);

  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  EXPECT_EQ(ck.count(validate::Rule::kFleetIndex), 1u);
  EXPECT_EQ(other_rule_count(ck, validate::Rule::kFleetIndex), 0u);
}

// ---- end-to-end -------------------------------------------------------------

experiments::RunConfig fleet_run_config(bool incremental) {
  ScoreBasedConfig cfg = ScoreBasedConfig::sb();
  cfg.incremental = incremental;
  experiments::RunConfig config = easched::testing::small_config("SB");
  config.policy_instance = std::make_unique<ScoreBasedPolicy>(cfg);
  return config;
}

void expect_same_run(const experiments::RunResult& a,
                     const experiments::RunResult& b) {
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.report.energy_kwh, b.report.energy_kwh);  // bitwise
  EXPECT_EQ(a.report.satisfaction, b.report.satisfaction);
  EXPECT_EQ(a.report.migrations, b.report.migrations);
  EXPECT_EQ(a.report.creations, b.report.creations);
  EXPECT_EQ(a.report.turn_ons, b.report.turn_ons);
  EXPECT_EQ(a.report.turn_offs, b.report.turn_offs);
  EXPECT_EQ(a.report.jobs_finished, b.report.jobs_finished);
}

struct EndToEndCase {
  const char* name;
  ScoreBasedConfig (*config)();
  MatrixSolver solver = MatrixSolver::kHillClimb;
  const char* faults = nullptr;  ///< inline fault plan, if any
};

void PrintTo(const EndToEndCase& tc, std::ostream* os) { *os << tc.name; }

class FleetEndToEndByConfig : public ::testing::TestWithParam<EndToEndCase> {
 protected:
  [[nodiscard]] experiments::RunResult run(bool incremental) const {
    const EndToEndCase& tc = GetParam();
    ScoreBasedConfig cfg = tc.config();
    cfg.solver = tc.solver;
    cfg.incremental = incremental;
    experiments::RunConfig config = easched::testing::small_config(cfg.label);
    config.policy_instance = std::make_unique<ScoreBasedPolicy>(cfg);
    if (tc.faults != nullptr) {
      config.faults = faults::parse_fault_plan(tc.faults);
    }
    return experiments::run_experiment(easched::testing::small_week(),
                                       std::move(config));
  }
};

// The whole-run guarantee behind the perf work: the incremental core
// changes nothing about what the policy decides — rounds under every
// penalty set (SB0 to SB-full), power-off ranking (including its
// empty-matrix fallback under SB0), faults and breakers, and annealing's
// random walk.
TEST_P(FleetEndToEndByConfig, IncrementalRunMatchesReferenceRun) {
  const auto reference = run(false);
  const auto incremental = run(true);
  expect_same_run(incremental, reference);
  if (GetParam().solver == MatrixSolver::kAnnealing) {
    // No other test runs annealing end to end: pin its run so a change to
    // the walk (rows it draws, cells it reads) shows up here.
    EXPECT_EQ(incremental.report.energy_kwh, 212.78065401551152);  // bitwise
    EXPECT_EQ(incremental.report.creations, 347u);
    EXPECT_EQ(incremental.report.migrations, 427u);
    EXPECT_EQ(incremental.report.turn_offs, 39u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FleetEndToEndByConfig,
    ::testing::Values(
        EndToEndCase{"SB0", &ScoreBasedConfig::sb0},
        EndToEndCase{"SB1", &ScoreBasedConfig::sb1},
        EndToEndCase{"SB2", &ScoreBasedConfig::sb2},
        EndToEndCase{"SBfullFaults", &ScoreBasedConfig::sb_full,
                     MatrixSolver::kHillClimb,
                     "migrate.fail=0.08,create.fail=0.03,create.hang=0.01,"
                     "power_on.fail=0.02,lemon=3:8,breaker_threshold=3"},
        EndToEndCase{"SBAnnealing", &ScoreBasedConfig::sb,
                     MatrixSolver::kAnnealing}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return std::string(info.param.name);
    });

// The plain SB case of the guarantee above.
TEST(FleetEndToEnd, IncrementalRunMatchesReferenceRun) {
  const auto jobs = easched::testing::small_week();
  const auto reference =
      experiments::run_experiment(jobs, fleet_run_config(false));
  const auto incremental =
      experiments::run_experiment(jobs, fleet_run_config(true));
  expect_same_run(incremental, reference);
}

// Full run with the invariant checker on: every round's refresh is checked
// against a fresh re-read (the policy's check_fleet hook), and none may
// diverge.
TEST(FleetEndToEnd, ValidatedIncrementalRunIsViolationFree) {
  const auto jobs = easched::testing::small_week();
  experiments::RunConfig config = fleet_run_config(true);
  config.validate.enabled = true;
  const auto result = experiments::run_experiment(jobs, std::move(config));
  EXPECT_TRUE(result.violations.empty())
      << result.violations.size() << " violations, first: "
      << (result.violations.empty() ? std::string()
                                    : result.violations.front().message);
  EXPECT_GT(result.invariant_checks, 0u);
}

// A 100-host fleet under the small week's load keeps most hosts powered
// off, so most argmin blocks hold no placeable host and the incremental
// climb never scans them. It must still decide exactly as the reference
// run, with the invariant checker on in both.
TEST(FleetEndToEnd, MostlyPoweredOffFleetMatchesReferenceRun) {
  constexpr std::size_t kHosts = 100;
  const auto jobs = easched::testing::small_week();
  const auto run = [&jobs](bool incremental) {
    ScoreBasedConfig cfg = ScoreBasedConfig::sb();
    cfg.incremental = incremental;
    experiments::RunConfig config =
        easched::testing::small_config("SB", 20, 50, 30);
    config.policy_instance = std::make_unique<ScoreBasedPolicy>(cfg);
    config.validate.enabled = true;
    return experiments::run_experiment(jobs, std::move(config));
  };
  const auto reference = run(false);
  const auto incremental = run(true);
  ASSERT_GT(incremental.report.creations, 0u);
  EXPECT_LT(incremental.report.avg_online, 0.25 * kHosts);
  EXPECT_GT(incremental.report.migrations, 0u);
  expect_same_run(incremental, reference);
  EXPECT_EQ(incremental.report.to_string(), reference.report.to_string());
  EXPECT_EQ(incremental.report.metrics.to_csv(),
            reference.report.metrics.to_csv());
  EXPECT_TRUE(incremental.violations.empty());
  EXPECT_TRUE(reference.violations.empty());
  EXPECT_GT(incremental.invariant_checks, 0u);
}

// A sparse trace leaves most rounds with an empty queue and no sweep due,
// and such a round builds no model. The two modes must still decide alike,
// and the validator must still check the fleet of every model a round
// builds.
TEST(FleetEndToEnd, IdleRoundsBuildNoModelAndDecideAlike) {
  workload::SyntheticConfig wl;
  wl.seed = 91;
  wl.span_seconds = 3 * sim::kDay;
  wl.mean_jobs_per_hour = 1;
  const workload::Workload jobs = workload::generate(wl);
  struct Run {
    PolicyLog log;
    obs::Observability obs;
    experiments::RunResult result;
  };
  const auto run = [&jobs](bool incremental) {
    auto r = std::make_unique<Run>();  // the recorder holds &r->obs
    r->obs.profiler.enable();
    ScoreBasedConfig cfg = ScoreBasedConfig::sb();
    cfg.incremental = incremental;
    experiments::RunConfig config = easched::testing::small_config("SB");
    config.policy_instance = std::make_unique<RecordingPolicy>(cfg, r->log);
    config.validate.enabled = true;
    config.obs = &r->obs;
    r->result = experiments::run_experiment(jobs, std::move(config));
    return r;
  };
  const auto ref = run(false);
  const auto inc = run(true);
  ASSERT_FALSE(ref->log.actions.empty());
  EXPECT_EQ(inc->log.actions, ref->log.actions);
  EXPECT_EQ(inc->log.picks, ref->log.picks);
  expect_same_run(inc->result, ref->result);
  EXPECT_EQ(inc->result.report.to_string(), ref->result.report.to_string());
  EXPECT_EQ(inc->result.report.metrics.to_csv(),
            ref->result.report.metrics.to_csv());
  EXPECT_TRUE(inc->result.violations.empty());
  EXPECT_TRUE(ref->result.violations.empty());

  const metrics::RunReport& rep = inc->result.report;
  EXPECT_GT(2 * rep.rounds_idle, rep.rounds);  // mostly idle
  const std::size_t models =
      inc->obs.profiler.samples(obs::Phase::kRebuild).size();
  EXPECT_EQ(ref->obs.profiler.samples(obs::Phase::kRebuild).size(), models);
  EXPECT_GT(models, 0u);
  // A model per round that was not idle, plus at most one per sweep.
  const double sweeps = inc->result.end_time_s / ScoreBasedConfig::sb().migration_period_s + 1;
  EXPECT_LE(static_cast<double>(models),
            static_cast<double>(rep.rounds - rep.rounds_idle) + sweeps);
  // Only the incremental mode runs check_fleet, once per model a round
  // builds; every other check sees the same run in both modes.
  EXPECT_EQ(inc->result.invariant_checks - ref->result.invariant_checks,
            models);
}

}  // namespace
}  // namespace easched::core
