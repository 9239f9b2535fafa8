// Tests for the cross-round incremental scheduling core (core/fleet.hpp):
//
//   - the headline differential: a persistent FleetState driven through
//     many mutated rounds must yield bit-identical score cells and
//     hill-climb decisions to the reference model's full read every round;
//   - power-off ranking agreement between the two modes, with idle hosts
//     that are quarantined or breaker-vetoed;
//   - end-to-end run identity (incremental vs reference policy across the
//     SB configurations and both solvers);
//   - recycled model scratch: models that grow and shrink round to round
//     over one FleetState match the reference, and a model keeps no
//     per-cell state in the scratch it returns;
//   - targeted dirty-journal behavior: maintenance flips, journal
//     deduplication, clean rounds re-reading nothing, dirt the journal
//     cannot see (clock-aged in-flight operations, breaker vetoes that
//     flip with the clock or inside the resilience controller), the
//     reference model leaving the journal alone, and persistent column
//     pruning;
//   - the power-off ranking memo: shedding several hosts in one power
//     controller update, and a column change that must miss the memo;
//   - HostBucketIndex unit checks (margins, block maxima);
//   - the kFleetSnapshot / kFleetIndex invariant rules: clean state passes,
//     seeded corruptions trip them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score_based_policy.hpp"
#include "core/score_matrix.hpp"
#include "experiments/runner.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
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
      fleet.refresh(f.dc, queue);
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
    fs.refresh(f.dc, inst.queue);
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

// The model's plan buffers and margins are recycled across models through
// the fleet's scratch, and its persisted columns outlive it. Swing the
// model size over one FleetState — a large migration model, a small
// queue-only one, the large one again — and hold every cell to a fresh
// reference model and every persisted cell to a fresh evaluation.
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
    fleet.refresh(f.dc, *b.queue);
    const ScoreModel inc(fleet, f.dc, *b.queue, params, b.migration);
    const ScoreModel ref(f.dc, *b.queue, params, b.migration);
    expect_models_equal(inc, ref, f.dc);  // warms every cell of `inc`
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(inc.count_cache_divergences(), 0);
  }
}

// Cells are evaluated on read, so what a model hands back to the fleet's
// scratch is O(hosts), whatever its column count: a 1000-host x 100-column
// model, every cell read and a few moves applied, leaves no vector in the
// scratch with more capacity than hosts + 1.
TEST(FleetScratch, ModelKeepsNoPerCellState) {
  constexpr std::size_t kHosts = 1000;
  constexpr int kCols = 100;
  SmallDc f(kHosts);
  std::vector<VmId> queue;
  for (int i = 0; i < kCols; ++i) {
    queue.push_back(f.dc.admit_job(make_job(50.0 + i, 128.0 + 4.0 * i)));
  }
  FleetState fleet;
  fleet.refresh(f.dc, queue);
  {
    ScoreModel m(fleet, f.dc, queue, ScoreParams{},
                 /*migration_enabled=*/false);
    ASSERT_EQ(m.rows(), static_cast<int>(kHosts) + 1);
    ASSERT_EQ(m.cols(), kCols);
    for (int r = 0; r < m.rows(); ++r) {
      for (int c = 0; c < m.cols(); ++c) (void)m.cell(r, c);
    }
    for (int c = 0; c < 4; ++c) m.move(c, c);
    for (int c = 0; c < m.cols(); ++c) (void)m.cell(0, c);
  }
  const ModelScratch& scratch = fleet.model_scratch();
  const std::size_t bound = kHosts + 1;
  EXPECT_LE(scratch.cpu_res.capacity(), bound);
  EXPECT_LE(scratch.mem_res.capacity(), bound);
  EXPECT_LE(scratch.running.capacity(), bound);
  EXPECT_LE(scratch.vm_count.capacity(), bound);
  EXPECT_LE(scratch.plan_touched.capacity(), bound);
  EXPECT_LE(scratch.margins.free_cpu_all().capacity(), bound);
  EXPECT_LE(scratch.margins.free_mem_all().capacity(), bound);
  EXPECT_LE(scratch.margins.block_free_cpu().capacity(), bound);
  EXPECT_LE(scratch.margins.block_free_mem().capacity(), bound);
  // The buffers did come back (the scratch is recycled, not dropped).
  EXPECT_EQ(scratch.cpu_res.size(), kHosts);
  EXPECT_EQ(scratch.margins.size(), kHosts);
}

// ---- dirty-journal behavior -------------------------------------------------

TEST(FleetDirty, RefreshPicksUpMaintenanceFlip) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(400.0);

  FleetState fleet;
  fleet.refresh(f.dc, {});
  ASSERT_EQ(fleet.snapshot().placeable[1], 1);

  f.dc.set_maintenance(1, true);
  EXPECT_GE(f.dc.fleet_dirty_count(), 1u);
  fleet.refresh(f.dc, {});
  EXPECT_EQ(fleet.snapshot().placeable[1], 0);
  EXPECT_EQ(fleet.index().free_cpu(1), -1.0);  // prunes everything
  EXPECT_GE(fleet.stats().last_reread, 1u);

  f.dc.set_maintenance(1, false);
  fleet.refresh(f.dc, {});
  EXPECT_EQ(fleet.snapshot().placeable[1], 1);
  EXPECT_GT(fleet.index().free_cpu(1), 0.0);
}

TEST(FleetDirty, JournalDeduplicates) {
  SmallDc f(3);
  FleetState fleet;
  fleet.refresh(f.dc, {});
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
  fleet.refresh(f.dc, {});

  f.dc.set_maintenance(1, true);
  ASSERT_EQ(f.dc.fleet_dirty_count(), 1u);
  const ScoreModel ref(f.dc, {}, ScoreParams{}, /*migration_enabled=*/false);
  EXPECT_FALSE(ref.placeable(1));
  EXPECT_EQ(f.dc.fleet_dirty_count(), 1u);

  fleet.refresh(f.dc, {});
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
  const ScoreParams params;  // use_sla off: persistent columns eligible

  FleetState fleet;
  fleet.refresh(f.dc, queue);
  ScoreModel a(fleet, f.dc, queue, params, /*migration_enabled=*/true);
  std::vector<double> cells_a;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) cells_a.push_back(a.cell(r, c));
  }

  fleet.refresh(f.dc, queue);
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
  fleet.refresh(f.dc, {});
  const double conc0 = fleet.snapshot().conc_remaining_s[0];
  ASSERT_GT(conc0, 0.0);

  // Advance the clock to just before the creation completes: nothing is
  // dispatched, nothing journaled — but the remaining time shrank.
  f.simulator.run_until(f.simulator.now() + conc0 * 0.5);
  fleet.refresh(f.dc, {});
  EXPECT_GE(fleet.stats().last_reread, 1u);  // the busy set re-read it
  EXPECT_LT(fleet.snapshot().conc_remaining_s[0], conc0);

  // And the refreshed state satisfies the snapshot rule at the new time.
  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  EXPECT_TRUE(ck.ok());
}

/// Bitwise equality of the refreshed snapshot and index with a fresh full
/// read of `dc` (FleetState::read_all).
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
  EXPECT_TRUE(same(fleet.index().free_cpu_all(), fresh.index().free_cpu_all()));
  EXPECT_TRUE(same(fleet.index().free_mem_all(), fresh.index().free_mem_all()));
  EXPECT_TRUE(same(fleet.index().block_free_cpu(),
                   fresh.index().block_free_cpu()));
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
  rcfg.breaker_threshold = 1;
  rcfg.breaker_probe_after_s = kProbeAfter;
  resilience::ResilienceController rc(rcfg, f.recorder, f.dc.num_hosts());
  f.recorder.resilience = &rc;

  FleetState fleet;
  fleet.refresh(f.dc, {});
  const auto step = [&](const char* what, bool placeable) {
    SCOPED_TRACE(what);
    EXPECT_EQ(f.dc.fleet_dirty_count(), 0u) << "step was journalled";
    fleet.refresh(f.dc, {});
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
  fleet.refresh(f.dc, {});
  EXPECT_EQ(fleet.stats().last_out_of_band, 0u);
  EXPECT_EQ(fleet.stats().last_reread, 0u);
}

// An in-flight operation ages with the clock, unjournalled, until its
// completion is journalled; the busy set re-reads the host every round in
// between and lets it go once the operation is done.
TEST(FleetDirty, BusyHostAgesThenCompletes) {
  SmallDc f(3);
  FleetState fleet;
  fleet.refresh(f.dc, {});
  EXPECT_EQ(fleet.stats().last_out_of_band, 0u);

  const VmId v = f.dc.admit_job(make_job());
  f.dc.place(v, 2);  // journalled: the creation starts
  fleet.refresh(f.dc, {});
  const double conc0 = fleet.snapshot().conc_remaining_s[2];
  ASSERT_GT(conc0, 0.0);
  expect_matches_full_read(fleet, f.dc);

  for (int i = 1; i <= 3; ++i) {
    f.simulator.run_until(f.simulator.now() + conc0 * 0.2);
    ASSERT_EQ(f.dc.fleet_dirty_count(), 0u);  // aging is not journalled
    fleet.refresh(f.dc, {});
    EXPECT_EQ(fleet.stats().last_out_of_band, 1u);
    EXPECT_EQ(fleet.stats().last_reread, 1u);
    EXPECT_LT(fleet.snapshot().conc_remaining_s[2], conc0);
    expect_matches_full_read(fleet, f.dc);
  }

  f.simulator.run_until(f.simulator.now() + conc0);  // creation completes
  ASSERT_EQ(f.dc.vm(v).state, datacenter::VmState::kRunning);
  fleet.refresh(f.dc, {});
  EXPECT_EQ(fleet.snapshot().conc_remaining_s[2], 0.0);
  expect_matches_full_read(fleet, f.dc);

  fleet.refresh(f.dc, {});  // idle again: nothing outside the journal
  EXPECT_EQ(fleet.stats().last_out_of_band, 0u);
  EXPECT_EQ(fleet.stats().last_reread, 0u);
}

TEST(FleetDirty, PersistentColumnsFollowTheQueue) {
  SmallDc f(3);
  std::vector<VmId> queue;
  for (int i = 0; i < 3; ++i) {
    queue.push_back(f.dc.admit_job(make_job(100, 256 + 100 * i)));
  }
  const ScoreParams params;  // use_sla off: columns are persistable

  FleetState fleet;
  fleet.refresh(f.dc, queue);
  {
    ScoreModel m(fleet, f.dc, queue, params, /*migration_enabled=*/false);
    for (int r = 0; r < m.rows(); ++r) {
      for (int c = 0; c < m.cols(); ++c) (void)m.cell(r, c);
    }
  }
  EXPECT_EQ(fleet.col_cache_count(), 3u);

  // Two VMs leave the queue: their columns must be pruned at refresh.
  queue.resize(1);
  fleet.refresh(f.dc, queue);
  EXPECT_EQ(fleet.col_cache_count(), 1u);
  EXPECT_EQ(fleet.stats().cols_dropped, 2u);
}

// use_sla makes queued columns time-dependent; they must not persist.
TEST(FleetDirty, SlaColumnsAreNotPersisted) {
  SmallDc f(3);
  std::vector<VmId> queue = {f.dc.admit_job(make_job())};
  ScoreParams params;
  params.use_sla = true;

  FleetState fleet;
  fleet.refresh(f.dc, queue);
  ScoreModel m(fleet, f.dc, queue, params, /*migration_enabled=*/false);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) (void)m.cell(r, c);
  }
  EXPECT_EQ(fleet.col_cache_count(), 0u);
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
  faults::FaultInjector injector(plan);
  datacenter::DatacenterConfig base;
  base.fault_injector = &injector;
  base.quarantine.failure_budget = 1;
  base.quarantine.cooldown_s = 1e9;
  SmallDc f(8, base);

  resilience::ResilienceConfig rcfg;
  rcfg.enabled = true;
  rcfg.breaker_threshold = 1;
  rcfg.breaker_probe_after_s = 1e9;
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

/// Forwards to a ScoreBasedPolicy and records every power-off pick, so two
/// power controller runs can be compared pick by pick.
class RecordingPolicy final : public sched::Policy {
 public:
  explicit RecordingPolicy(ScoreBasedConfig cfg) : inner_(std::move(cfg)) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  std::vector<sched::Action> schedule(const sched::SchedContext& ctx) override {
    return inner_.schedule(ctx);
  }
  HostId choose_power_off(const sched::SchedContext& ctx,
                          const std::vector<HostId>& idle) override {
    picks.push_back(inner_.choose_power_off(ctx, idle));
    return picks.back();
  }
  std::vector<HostId> picks;

 private:
  ScoreBasedPolicy inner_;
};

/// Picks of one power controller update on a fleet of mixed node classes
/// with a few running VMs and a lambda_min that sheds every idle host.
std::vector<HostId> shed_in_one_update(bool incremental) {
  datacenter::DatacenterConfig base;
  const datacenter::HostSpec specs[] = {
      datacenter::HostSpec::fast(), datacenter::HostSpec::medium(),
      datacenter::HostSpec::slow(), datacenter::HostSpec::low_power()};
  for (int i = 0; i < 10; ++i) base.hosts.push_back(specs[(i * 3) % 4]);
  SmallDc f(10, base);
  f.admit_and_place(make_job(100, 512, 50000), 0);
  f.admit_and_place(make_job(200, 1024, 50000), 3);
  f.admit_and_place(make_job(150, 768, 50000), 7);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();  // migration: cols() > 0
  cfg.incremental = incremental;
  RecordingPolicy policy(cfg);
  sched::PowerControllerConfig pcfg;
  pcfg.lambda_min = 0.9;  // shed until working / online >= 0.9
  support::Rng rng{5};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  sched::PowerController(pcfg).update(ctx, f.dc, policy);
  return policy.picks;
}

// The power controller sheds one choose_power_off pick at a time, all at
// one sim time; the incremental policy reuses its row aggregates across
// those picks. Its picks must be the reference policy's.
TEST(FleetPowerOff, ShedsSeveralHostsInOneUpdateLikeTheReference) {
  const std::vector<HostId> ref = shed_in_one_update(false);
  const std::vector<HostId> inc = shed_in_one_update(true);
  ASSERT_GE(ref.size(), 5u);
  EXPECT_EQ(inc, ref);
}

// A running VM's demand grows between two picks at the same sim time. The
// idle hosts are not re-read (only the VM's host is journalled), but the
// VM's column changed, so the memo must miss: the grown VM no longer fits
// the smaller idle host, whose row turns infinite and now ranks first.
TEST(FleetPowerOff, ColumnChangeMissesTheMemo) {
  constexpr HostId kBig = 1;    // idle, 800 % CPU
  constexpr HostId kSmall = 2;  // idle, 400 % CPU
  datacenter::DatacenterConfig base;
  datacenter::HostSpec big = datacenter::HostSpec::medium();
  big.cpu_capacity_pct = 800;
  base.hosts = {big, big, datacenter::HostSpec::medium()};
  SmallDc f(3, base);
  const VmId v = f.admit_and_place(make_job(100, 512, 50000), 0);
  f.simulator.run_until(400.0);

  ScoreBasedConfig cfg = ScoreBasedConfig::sb();
  ScoreBasedPolicy inc(cfg);
  cfg.incremental = false;
  ScoreBasedPolicy ref(cfg);
  support::Rng rng{7};
  const std::vector<VmId> empty;
  const sched::SchedContext ctx{f.dc, empty, rng};
  const std::vector<HostId> idle = {kBig, kSmall};

  // Both rows are finite; the emptier (bigger) host aggregates higher.
  const HostId before = ref.choose_power_off(ctx, idle);
  EXPECT_EQ(before, kBig);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), before);

  const sim::SimTime t = f.simulator.now();
  f.dc.boost_demand(v, 500);  // no longer fits kSmall
  ASSERT_EQ(f.simulator.now(), t);
  const HostId after = ref.choose_power_off(ctx, idle);
  EXPECT_EQ(after, kSmall);
  EXPECT_EQ(inc.choose_power_off(ctx, idle), after);
}

// ---- HostBucketIndex --------------------------------------------------------

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

TEST(HostBucketIndex, MarginsAndBlocks) {
  // 70 hosts = two full kArgminBlock blocks plus a partial tail.
  const std::size_t n = 70;
  FleetSnapshot snap = uniform_snapshot(n, 400, 4096);
  for (std::size_t h = 0; h < n; ++h) {
    snap.cpu_res[h] = static_cast<double>(h % 5) * 80.0;
    snap.mem_res[h] = static_cast<double>(h % 3) * 1000.0;
    if (h % 7 == 0) snap.placeable[h] = 0;
  }
  HostBucketIndex index;
  index.reset(n);
  for (std::size_t h = 0; h < n; ++h) {
    index.update(static_cast<HostId>(h), snap);
  }

  for (std::size_t h = 0; h < n; ++h) {
    EXPECT_EQ(index.free_cpu(h),
              FleetState::expected_free_cpu(snap, static_cast<HostId>(h)));
    EXPECT_EQ(index.free_mem(h),
              FleetState::expected_free_mem(snap, static_cast<HostId>(h)));
    if (!snap.placeable[h]) EXPECT_EQ(index.free_cpu(h), -1.0);
  }
  const std::size_t nblocks = (n + kArgminBlock - 1) / kArgminBlock;
  ASSERT_EQ(index.block_free_cpu().size(), nblocks);
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    double best_cpu = -1.0, best_mem = -1.0;
    const std::size_t hi = std::min(n, (blk + 1) * kArgminBlock);
    for (std::size_t h = blk * kArgminBlock; h < hi; ++h) {
      best_cpu = std::max(best_cpu, index.free_cpu(h));
      best_mem = std::max(best_mem, index.free_mem(h));
    }
    EXPECT_EQ(index.block_free_cpu()[blk], best_cpu);
    EXPECT_EQ(index.block_free_mem()[blk], best_mem);
  }

  // Incremental update keeps everything consistent.
  snap.cpu_res[10] = 390.0;
  snap.placeable[14] = 0;
  index.update(10, snap);
  index.update(14, snap);
  EXPECT_EQ(index.free_cpu(10), FleetState::expected_free_cpu(snap, 10));
  EXPECT_EQ(index.free_cpu(14), -1.0);

  // set() (the score model's plan-tracked path) maintains the block
  // maxima both ways: a wider margin raises its block's maximum, and
  // narrowing it again restores the snapshot-derived one.
  const double block1_cpu = index.block_free_cpu()[1];
  index.set(40, 1e6, 2e6);
  EXPECT_EQ(index.block_free_cpu()[1], 1e6);
  EXPECT_EQ(index.block_free_mem()[1], 2e6);
  index.update(40, snap);
  EXPECT_EQ(index.block_free_cpu()[1], block1_cpu);
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
  fleet.refresh(f.dc, {});

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
  fleet.refresh(f.dc, {});
  fleet.debug_corrupt_snapshot(1, 13.0);

  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  // The index mirrors the (now corrupted) snapshot it was NOT rebuilt
  // from, so kFleetIndex legitimately co-fires; the snapshot rule is the
  // one that names the root cause.
  EXPECT_EQ(ck.count(validate::Rule::kFleetSnapshot), 1u);
  EXPECT_FALSE(ck.ok());
}

TEST(FleetChecker, CatchesCorruptedIndex) {
  SmallDc f(3);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(400.0);
  FleetState fleet;
  fleet.refresh(f.dc, {});
  fleet.debug_corrupt_index(2, 5.0);

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
// changes nothing about what the policy decides — rounds, power-off
// ranking (including its empty-matrix fallback under SB0), faults and
// breakers, and annealing's random walk.
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

}  // namespace
}  // namespace easched::core
