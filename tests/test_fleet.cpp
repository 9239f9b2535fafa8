// Tests for the cross-round incremental scheduling core (core/fleet.hpp):
//
//   - the headline differential: a persistent FleetState driven through
//     many mutated rounds must yield bit-identical score cells and
//     hill-climb decisions to the reference model's full read every round;
//   - power-off ranking agreement between the two modes, with idle hosts
//     that are quarantined or breaker-vetoed;
//   - end-to-end run identity (incremental vs reference policy across the
//     SB configurations and both solvers, and 1 vs 4 solver threads on the
//     incremental path);
//   - targeted dirty-journal behavior: maintenance flips, journal
//     deduplication, clean rounds re-reading nothing, clock-aged in-flight
//     operations caught by the force-reread scan, the reference model
//     leaving the journal alone, and persistent column pruning;
//   - HostBucketIndex unit/property checks (margins, block maxima, band
//     histogram, conservative candidate bound);
//   - the kFleetSnapshot / kFleetIndex invariant rules: clean state passes,
//     seeded corruptions trip them.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score_based_policy.hpp"
#include "core/score_matrix.hpp"
#include "core/solver_pool.hpp"
#include "experiments/runner.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "resilience/resilience.hpp"
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

// Threading must not change incremental decisions: serial, 4-thread and
// the reference all agree on one round. (Fresh FleetStates both take the
// full-init path, so sharing one drained journal is fine.)
TEST_P(FleetDifferential, ThreadedFleetMatchesSerialAndReference) {
  const std::uint64_t seed = GetParam() * 6151 + 11;
  support::Rng rng{seed};
  SolverPool pool4(4);
  for (int instance = 0; instance < 10; ++instance) {
    RandomInstance inst = make_random_instance(rng, seed, instance);
    SCOPED_TRACE(inst.describe());
    SmallDc& f = *inst.fixture;

    FleetState fs_ser, fs_thr;
    fs_ser.refresh(f.dc, inst.queue);
    fs_thr.refresh(f.dc, inst.queue);
    ScoreModel m_ref(f.dc, inst.queue, inst.params, inst.migration);
    ScoreModel m_ser(fs_ser, f.dc, inst.queue, inst.params, inst.migration);
    ScoreModel m_thr(fs_thr, f.dc, inst.queue, inst.params, inst.migration,
                     &pool4);

    const HillClimbLimits limits = random_limits(rng);
    HillClimbLimits l4 = limits;
    l4.pool = &pool4;
    const HillClimbStats s_ref = hill_climb(m_ref, limits);
    const HillClimbStats s_ser = hill_climb(m_ser, limits);
    const HillClimbStats s_thr = hill_climb(m_thr, l4);

    expect_same_decisions(s_ser, s_ref, m_ser, m_ref);
    if (::testing::Test::HasFatalFailure()) return;
    expect_same_decisions(s_thr, s_ser, m_thr, m_ser);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

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
// any Datacenter mutation; refresh's force-reread scan must catch it.
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
  EXPECT_GE(fleet.stats().last_reread, 1u);  // the out-of-band scan fired
  EXPECT_LT(fleet.snapshot().conc_remaining_s[0], conc0);

  // And the refreshed state satisfies the snapshot rule at the new time.
  validate::InvariantChecker ck;
  ck.check_fleet(fleet, f.dc, f.simulator.now());
  EXPECT_TRUE(ck.ok());
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
  cfg.solver_threads = 1;
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

TEST(HostBucketIndex, MarginsBlocksAndBands) {
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

  int placeable = 0;
  for (std::size_t h = 0; h < n; ++h) {
    EXPECT_EQ(index.free_cpu(h),
              FleetState::expected_free_cpu(snap, static_cast<HostId>(h)));
    EXPECT_EQ(index.free_mem(h),
              FleetState::expected_free_mem(snap, static_cast<HostId>(h)));
    if (snap.placeable[h]) {
      ++placeable;
    } else {
      EXPECT_EQ(index.free_cpu(h), -1.0);
    }
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
  int counted = 0;
  for (int b = 0; b < HostBucketIndex::kBands; ++b) {
    counted += index.band_count(b);
  }
  EXPECT_EQ(counted, placeable);  // unplaceable hosts leave the histogram

  // Incremental update keeps everything consistent.
  snap.cpu_res[10] = 390.0;
  snap.placeable[14] = 0;
  index.update(10, snap);
  index.update(14, snap);
  EXPECT_EQ(index.free_cpu(10), FleetState::expected_free_cpu(snap, 10));
  EXPECT_EQ(index.free_cpu(14), -1.0);
}

TEST(HostBucketIndex, BandOfEdges) {
  EXPECT_EQ(HostBucketIndex::band_of(-1.0), -1);
  EXPECT_EQ(HostBucketIndex::band_of(0.0), 0);
  EXPECT_EQ(HostBucketIndex::band_of(HostBucketIndex::kBandWidthPct - 0.01),
            0);
  EXPECT_EQ(HostBucketIndex::band_of(HostBucketIndex::kBandWidthPct), 1);
  EXPECT_EQ(HostBucketIndex::band_of(1e9), HostBucketIndex::kBands - 1);
}

// The histogram bound may over-count (band granularity, the saturated top
// band) but must never under-count true candidates.
TEST(HostBucketIndex, CandidateUpperBoundIsConservative) {
  support::Rng rng{4242};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 200));
    FleetSnapshot snap = uniform_snapshot(n, 1600, 8192);
    for (std::size_t h = 0; h < n; ++h) {
      snap.cpu_res[h] = rng.uniform(0, 1800);  // some hosts oversubscribed
      if (rng.uniform01() < 0.1) snap.placeable[h] = 0;
    }
    HostBucketIndex index;
    index.reset(n);
    for (std::size_t h = 0; h < n; ++h) {
      index.update(static_cast<HostId>(h), snap);
    }
    for (double need : {10.0, 100.0, 333.0, 900.0, 1700.0}) {
      int exact = 0;
      for (std::size_t h = 0; h < n; ++h) {
        if (index.free_cpu(h) >= need) ++exact;
      }
      EXPECT_GE(index.candidate_upper_bound(need), exact)
          << "n=" << n << " need=" << need;
    }
  }
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

experiments::RunConfig fleet_run_config(bool incremental, int threads = 0) {
  ScoreBasedConfig cfg = ScoreBasedConfig::sb();
  cfg.incremental = incremental;
  cfg.solver_threads = threads;
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

TEST(FleetEndToEnd, SolverThreadCountDoesNotChangeDecisions) {
  const auto jobs = easched::testing::small_week();
  const auto serial =
      experiments::run_experiment(jobs, fleet_run_config(true, 1));
  const auto threaded =
      experiments::run_experiment(jobs, fleet_run_config(true, 4));
  expect_same_run(threaded, serial);
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
