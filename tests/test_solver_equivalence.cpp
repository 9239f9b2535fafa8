// Differential tests locking the production hill climber to its executable
// specification: across randomized instances, hill_climb() must produce
// the exact move sequence — column, rows and bit-identical delta — and
// final plan of hill_climb_reference(), and on
// small instances selected seeds must reach the exhaustive optimum.
//
// The production path — hill_climb() over a FleetState-backed model, whose
// block_live / provably_inf / skip_block / score_floor prune — is held to
// hill_climb_reference() over a reference-mode model, which prunes
// nothing: on random fleets of up to 130 hosts (several kArgminBlock
// blocks and a partial tail block), on a table of adversarial cases for
// the score floor and on a table of fleets with dead blocks (no
// placeable host). The climb counters are checked on fixed consolidation
// rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/exhaustive.hpp"
#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score_based_policy.hpp"
#include "core/score_matrix.hpp"
#include "resilience/resilience.hpp"
#include "test_random_instances.hpp"

namespace easched::core {
namespace {

using datacenter::HostId;
using datacenter::HostSpec;
using datacenter::VmId;
using easched::testing::make_job;
using easched::testing::RandomInstance;
using easched::testing::make_random_instance;
using easched::testing::randomize_weights;
using easched::testing::SmallDc;

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

/// The policy's solver limits (Algorithm 1 iteration limit, migration
/// budget 8, migration gain 35).
HillClimbLimits policy_limits() {
  const ScoreBasedConfig config;
  HillClimbLimits limits;
  limits.max_moves = config.max_moves;
  limits.max_migration_moves = kMaxMigrationsPerRound;
  limits.min_migration_gain = config.min_migration_gain;
  return limits;
}

/// Climbs the production path (hill_climb over an incremental model of a
/// fresh FleetState) and the spec (hill_climb_reference over a reference
/// model) on the same round and requires the same moves and plan.
void expect_production_matches_spec(SmallDc& f,
                                    const std::vector<VmId>& queue,
                                    const ScoreParams& params,
                                    bool migration,
                                    const HillClimbLimits& limits) {
  FleetState fleet;
  fleet.refresh(f.dc);
  ScoreModel m_inc(fleet, f.dc, queue, params, migration);
  ScoreModel m_ref(f.dc, queue, params, migration);
  ASSERT_FALSE(m_inc.reference());
  ASSERT_TRUE(m_ref.reference());
  const HillClimbStats s_ref = hill_climb_reference(m_ref, limits);
  const HillClimbStats s_inc = hill_climb(m_inc, limits);
  expect_same_outcome(s_ref, s_inc, m_ref, m_inc);
}

// The production path against the spec: a FleetState-backed model with
// every prune on, on fleets large enough for several argmin blocks and a
// partial tail block, under limits that include the policy's migration
// gain and budgets that run out before, during or after the climb.
TEST_P(SolverEquivalence, FleetModelMatchesReferenceSpec) {
  const std::uint64_t seed = GetParam() * 7919 + 3;
  support::Rng rng{seed};
  for (int instance = 0; instance < 40; ++instance) {
    RandomInstance inst =
        make_random_instance(rng, seed, instance, /*max_hosts=*/130,
                             /*max_running=*/200, /*max_queued=*/12);
    SCOPED_TRACE(inst.describe());
    if (rng.uniform01() < 0.5) randomize_weights(rng, inst.params);
    HillClimbLimits limits = policy_limits();
    const double gain_draw = rng.uniform01();
    if (gain_draw < 0.25) {
      limits.min_migration_gain = 1e-9;
    } else if (gain_draw < 0.5) {
      limits.min_migration_gain = rng.uniform(1, 60);
    }
    if (rng.uniform01() < 0.5) {
      limits.max_migration_moves = static_cast<int>(rng.uniform_int(0, 3));
    }
    if (rng.uniform01() < 0.2) {
      limits.max_moves = static_cast<int>(rng.uniform_int(1, 12));
    }
    expect_production_matches_spec(*inst.fixture, inst.queue, inst.params,
                                   inst.migration, limits);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- a consolidation round --------------------------------------------------

/// One scheduling round, ready to build models from.
struct Round {
  std::unique_ptr<SmallDc> fixture;
  /// Circuit breakers riding on the fixture's recorder, when a case needs
  /// a vetoed host (declared after the fixture: the recorder outlives it).
  std::unique_ptr<resilience::ResilienceController> breakers;
  std::vector<VmId> queue;
  ScoreParams params = ScoreBasedConfig::sb_full().params;
  HillClimbLimits limits = policy_limits();
};

/// A round over `hosts` hosts cycling fast / medium / slow with
/// reliabilities 0.90..0.99, where host h carries vms(h) 100 % VMs, or is
/// powered off when vms(h) < 0. `adjust` may edit the host specs first.
/// `queued` fresh VMs wait in the queue.
Round fleet_round(int hosts, int queued, const std::function<int(int)>& vms,
                  const std::function<void(std::vector<HostSpec>&)>& adjust =
                      nullptr) {
  datacenter::DatacenterConfig config;
  for (int h = 0; h < hosts; ++h) {
    HostSpec spec = h % 3 == 0   ? HostSpec::fast()
                    : h % 3 == 1 ? HostSpec::medium()
                                 : HostSpec::slow();
    spec.reliability = 0.90 + 0.01 * (h % 10);
    config.hosts.push_back(spec);
  }
  if (adjust) adjust(config.hosts);
  Round round;
  round.fixture = std::make_unique<SmallDc>(config.hosts.size(),
                                            std::move(config));
  SmallDc& f = *round.fixture;
  for (int h = 0; h < hosts; ++h) {
    const int n = vms(h);
    if (n < 0) f.dc.power_off(static_cast<HostId>(h));
    for (int k = 0; k < n; ++k) {
      workload::Job job = make_job(100, 512, 36000);
      job.fault_tolerance = 0.02 * ((h + k) % 3);
      f.admit_and_place(job, static_cast<HostId>(h));
    }
  }
  f.simulator.run_until(600);  // creations and shutdowns settle
  for (int i = 0; i < queued; ++i) {
    round.queue.push_back(f.dc.admit_job(
        make_job(100.0 * (i % 2 + 1), 512, 7200, 1.5, f.simulator.now())));
  }
  return round;
}

/// The consolidation mix: a host carries 3 (most), 1 (every fifth) or 0
/// (every seventh) 100 % VMs, so fairly full hosts hold columns the floor
/// retires and near-empty ones hold columns worth migrating.
int consolidation_mix(int h) { return h % 7 == 6 ? 0 : h % 5 == 4 ? 1 : 3; }

/// A consolidation round over `hosts` hosts, all on (see fleet_round).
Round consolidation_round(int hosts, int queued) {
  return fleet_round(hosts, queued, consolidation_mix);
}

// ---- climb counters ---------------------------------------------------------

/// Forwards the solver's model concept, pruning included, to a ScoreModel
/// and logs every cell read (the rows each column was read at, in order)
/// and the block work the solver asked the model about.
struct CellLog {
  ScoreModel& model;
  std::vector<std::vector<int>> reads;  ///< per column
  std::int64_t total = 0;
  std::vector<int> live;  ///< block_live() answers by block; -1: not asked
  std::int64_t skips = 0;  ///< skip_block() calls that returned true
  std::int64_t scans = 0;  ///< skip_block() calls that returned false
  /// Runs of consecutive skip_block() calls on one column, a move ending
  /// a run: each is one column's scan, followed by one reduction.
  std::int64_t col_runs = 0;
  /// skip_block() calls on, and cell reads of real rows in, a block it
  /// called dead (a queued column's keep score is its virtual-row cell).
  std::int64_t dead_visits = 0;
  int run_col = -1;

  explicit CellLog(ScoreModel& m)
      : model(m),
        reads(static_cast<std::size_t>(m.cols())),
        live(static_cast<std::size_t>((m.rows() + kArgminBlock - 1) /
                                      kArgminBlock),
             -1) {}
  bool dead(int blk) const { return live[static_cast<std::size_t>(blk)] == 0; }
  int rows() const { return model.rows(); }
  int cols() const { return model.cols(); }
  int virtual_row() const { return model.virtual_row(); }
  double cell(int r, int c) {
    reads[static_cast<std::size_t>(c)].push_back(r);
    ++total;
    if (r != virtual_row() && dead(r / kArgminBlock)) ++dead_visits;
    return model.cell(r, c);
  }
  int plan_row(int c) const { return model.plan_row(c); }
  int original_row(int c) const { return model.original_row(c); }
  bool movable(int c) const { return model.movable(c); }
  bool block_live(int blk) {
    const bool l = model.block_live(blk);
    live[static_cast<std::size_t>(blk)] = l ? 1 : 0;
    return l;
  }
  bool provably_inf(int r, int c) const { return model.provably_inf(r, c); }
  bool skip_block(int c, int blk) {
    if (c != run_col) ++col_runs;
    run_col = c;
    if (dead(blk)) ++dead_visits;
    const bool skip = model.skip_block(c, blk);
    ++(skip ? skips : scans);
    return skip;
  }
  double score_floor(int c) const { return model.score_floor(c); }
  ScoreModel::Dirty move(int r, int c) {
    run_col = -1;
    return model.move(r, c);
  }
};

/// The block counters of `s` are the calls `log` saw, and no dead block
/// was visited.
void expect_block_work_logged(const HillClimbStats& s, const CellLog& log) {
  EXPECT_EQ(s.blocks_skipped, log.skips);
  EXPECT_EQ(s.blocks_rescanned, log.scans);
  EXPECT_EQ(s.col_reductions, log.col_runs);
  EXPECT_EQ(log.dead_visits, 0);
  for (const int l : log.live) EXPECT_NE(l, -1) << "a block was never asked";
}

// On a fixed consolidation round (4 argmin blocks, the policy's limits),
// the counters report exactly the cells the solver read; a column retired
// by the floor whose plan row no move touches reads its keep score and
// nothing else; and with the floor and the other prunes disabled
// (reference mode) the same climb reads more cells.
TEST(ClimbCounters, RetiredColumnsReadOnlyTheirKeepScore) {
  Round round = consolidation_round(/*hosts=*/100, /*queued=*/4);
  round.params = ScoreBasedConfig::sb().params;
  SmallDc& f = *round.fixture;
  FleetState fleet;
  fleet.refresh(f.dc);
  ScoreModel m_inc(fleet, f.dc, round.queue, round.params, true);
  ScoreModel m_ref(f.dc, round.queue, round.params, true);
  ASSERT_GE((m_inc.rows() + kArgminBlock - 1) / kArgminBlock, 3);

  // Which columns the floor retires before any move, by the solver's rule.
  std::vector<bool> retired_cold(static_cast<std::size_t>(m_inc.cols()));
  for (int c = 0; c < m_inc.cols(); ++c) {
    const bool migration = m_inc.original_row(c) != m_inc.virtual_row();
    const double threshold = migration ? -round.limits.min_migration_gain
                                       : -round.limits.min_gain;
    retired_cold[static_cast<std::size_t>(c)] =
        m_inc.score_floor(c) - m_inc.cell(m_inc.plan_row(c), c) > threshold;
  }

  CellLog log_inc(m_inc);
  CellLog log_ref(m_ref);
  const HillClimbStats s_inc = hill_climb(log_inc, round.limits);
  const HillClimbStats s_ref = hill_climb(log_ref, round.limits);
  expect_same_outcome(s_ref, s_inc, m_ref, m_inc);
  ASSERT_GT(s_inc.migration_moves, 0) << "the fixture must consolidate";

  EXPECT_EQ(s_inc.cells_read_cold + s_inc.cells_read_update, log_inc.total);
  EXPECT_EQ(s_ref.cells_read_cold + s_ref.cells_read_update, log_ref.total);
  EXPECT_EQ(s_ref.cols_retired, 0);  // reference mode prunes nothing
  expect_block_work_logged(s_inc, log_inc);
  expect_block_work_logged(s_ref, log_ref);
  EXPECT_EQ(s_ref.blocks_skipped, 0);

  std::vector<bool> touched(static_cast<std::size_t>(m_inc.rows()), false);
  std::vector<bool> moved(static_cast<std::size_t>(m_inc.cols()), false);
  for (const HillClimbMove& mv : s_inc.trace) {
    touched[static_cast<std::size_t>(mv.from_row)] = true;
    touched[static_cast<std::size_t>(mv.to_row)] = true;
    moved[static_cast<std::size_t>(mv.col)] = true;
  }
  int quiet_retired = 0;
  for (int c = 0; c < m_inc.cols(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const int plan = m_inc.plan_row(c);
    if (!retired_cold[i] || moved[i] || touched[static_cast<std::size_t>(plan)]) {
      continue;
    }
    ++quiet_retired;
    EXPECT_EQ(log_inc.reads[i], std::vector<int>{plan})
        << "retired column " << c << " read more than its keep score";
  }
  EXPECT_GT(quiet_retired, 0);
  EXPECT_GE(s_inc.cols_retired, quiet_retired);
  EXPECT_LT(log_inc.total, log_ref.total);
}

/// Whether kArgminBlock block `blk` of `f`'s fleet holds a placeable host,
/// read from the Datacenter (the oracle for ScoreModel::block_live).
bool block_has_placeable_host(const SmallDc& f, int blk) {
  const auto lo = static_cast<HostId>(blk * kArgminBlock);
  const auto hi = std::min<HostId>(f.dc.num_hosts(), lo + kArgminBlock);
  for (HostId h = lo; h < hi; ++h) {
    if (f.dc.placeable(h)) return true;
  }
  return false;
}

// On a round whose middle two blocks are powered off and whose virtual row
// sits alone in the tail block, the production climb asks the model once
// per block whether it is live, never visits a dead block (no skip_block
// call, no cell read), and its block counters are the calls the model
// saw; the spec visits every block and so does more block work.
TEST(ClimbCounters, DeadBlocksAreNeverVisited) {
  Round round = fleet_round(/*hosts=*/128, /*queued=*/4, [](int h) {
    return h >= 32 && h < 96 ? -1 : consolidation_mix(h);
  });
  SmallDc& f = *round.fixture;
  FleetState fleet;
  fleet.refresh(f.dc);
  ScoreModel m_inc(fleet, f.dc, round.queue, round.params, true);
  ScoreModel m_ref(f.dc, round.queue, round.params, true);
  CellLog log_inc(m_inc);
  CellLog log_ref(m_ref);
  const HillClimbStats s_inc = hill_climb(log_inc, round.limits);
  const HillClimbStats s_ref = hill_climb(log_ref, round.limits);
  expect_same_outcome(s_ref, s_inc, m_ref, m_inc);
  ASSERT_GT(s_inc.moves, 0);

  const std::vector<int> expected_live{1, 0, 0, 1, 0};
  ASSERT_EQ(log_inc.live, expected_live);
  for (int blk = 0; blk < 4; ++blk) {
    EXPECT_EQ(log_inc.live[static_cast<std::size_t>(blk)] != 0,
              block_has_placeable_host(f, blk))
        << "block " << blk;
  }
  EXPECT_EQ(log_ref.live, std::vector<int>(5, 1));  // the spec prunes nothing
  expect_block_work_logged(s_inc, log_inc);
  expect_block_work_logged(s_ref, log_ref);
  EXPECT_LT(s_inc.blocks_skipped + s_inc.blocks_rescanned,
            s_ref.blocks_rescanned);
}

// ---- adversarial cases for the score floor ----------------------------------

/// The row of the first host of class `klass`.
int first_row_of(const SmallDc& f, const std::string& klass) {
  for (HostId h = 0; h < f.dc.num_hosts(); ++h) {
    if (f.dc.host(h).spec.klass == klass) return static_cast<int>(h);
  }
  return -1;
}

/// The most negative migration delta the spec's first scan sees: over
/// every running column and every real row but its plan row.
double best_migration_delta(const ScoreModel& m) {
  double best = 0;
  for (int c = 0; c < m.cols(); ++c) {
    if (m.original_row(c) == m.virtual_row()) continue;
    const double keep = m.cell(m.plan_row(c), c);
    for (int r = 0; r < m.virtual_row(); ++r) {
      if (r != m.plan_row(c)) best = std::min(best, m.cell(r, c) - keep);
    }
  }
  return best;
}

/// Whether some cell of the round satisfies `pred`.
bool any_cell(const ScoreModel& m,
              const std::function<bool(int, int)>& pred) {
  for (int c = 0; c < m.cols(); ++c) {
    for (int r = 0; r < m.virtual_row(); ++r) {
      if (pred(r, c)) return true;
    }
  }
  return false;
}

struct FloorCase {
  const char* name;
  /// Builds the round (the base consolidation round, adjusted).
  std::function<Round()> build;
  /// Holds when the round really exercises the case, on a reference model
  /// of it; nullptr when the construction alone guarantees it.
  std::function<bool(const Round&, const ScoreModel&)> exercised;
  /// Further checks on the spec's move trace; nullptr for none.
  std::function<void(const Round&, const HillClimbStats&)> check_trace;
};

Round base_round() { return consolidation_round(/*hosts=*/70, /*queued=*/3); }

/// Admits a 100 % job at t=0 that waits in the queue until `wait_until`
/// and is then placed on `host`; returns its VM.
VmId late_placed(SmallDc& f, HostId host, double wait_until,
                 double dedicated_s, double deadline_factor = 1.5) {
  const VmId v =
      f.dc.admit_job(make_job(100, 512, dedicated_s, deadline_factor, 0));
  f.simulator.run_until(wait_until);
  f.dc.place(v, host);
  return v;
}

std::vector<FloorCase> floor_cases() {
  std::vector<FloorCase> cases;
  // The pick accepts a migration whose delta equals -min_migration_gain
  // (`delta <= threshold`); the floor must not retire its column.
  cases.push_back({"MigrationDeltaExactlyAtTheGain",
                   [] {
                     Round r = base_round();
                     r.queue.clear();
                     ScoreModel m(r.fixture->dc, r.queue, r.params, true);
                     r.limits.min_migration_gain = -best_migration_delta(m);
                     return r;
                   },
                   [](const Round& r, const ScoreModel&) {
                     return r.limits.min_migration_gain > 0;
                   },
                   [](const Round& r, const HillClimbStats& s) {
                     ASSERT_FALSE(s.trace.empty());
                     EXPECT_EQ(s.trace.front().delta,
                               -r.limits.min_migration_gain);
                   }});
  // With Cf = 0 and only Ppwr on, a VM alone on its host keeps Ce and
  // every non-empty target scores exactly the floor 0: floor - keep is
  // exactly the threshold -Ce, which must not retire the column.
  cases.push_back({"FloorTightAtTheThreshold",
                   [] {
                     Round r = base_round();
                     r.queue.clear();
                     r.params = ScoreParams{};
                     r.params.use_virt = false;
                     r.params.use_conc = false;
                     r.params.c_fill = 0;
                     r.limits.min_migration_gain = r.params.c_empty;
                     return r;
                   },
                   nullptr,
                   [](const Round& r, const HillClimbStats& s) {
                     ASSERT_FALSE(s.trace.empty());
                     EXPECT_EQ(s.trace.front().delta, -r.params.c_empty);
                   }});
  // p_res admits occupations up to 1 + 1e-9, so a finite Ppwr can dip
  // below -Cf: host 0's capacity is a hair under its three VMs plus one
  // more, and the lone VM on host 1 gains most by moving there. The floor
  // must cover that dip when the gain sits exactly at the threshold.
  cases.push_back({"OccupationPastOneWithinTolerance",
                   [] {
                     datacenter::DatacenterConfig config;
                     config.hosts.assign(6, HostSpec::medium());
                     config.hosts[0].cpu_capacity_pct = 399.9999998;
                     Round r;
                     r.fixture = std::make_unique<SmallDc>(
                         config.hosts.size(), std::move(config));
                     SmallDc& f = *r.fixture;
                     for (HostId h : {0, 0, 0, 1, 2, 2, 2, 3, 3, 3}) {
                       f.admit_and_place(make_job(100, 512, 36000), h);
                     }
                     f.simulator.run_until(600);
                     r.params = ScoreParams{};
                     r.params.use_virt = false;
                     r.params.use_conc = false;
                     r.params.c_empty = 0;
                     ScoreModel m(f.dc, r.queue, r.params, true);
                     r.limits.min_migration_gain = -best_migration_delta(m);
                     return r;
                   },
                   [](const Round& r, const ScoreModel& m) {
                     return any_cell(m, [&](int row, int c) {
                       return row == 0 && m.plan_row(c) != 0 &&
                              m.breakdown(row, c).pwr < -r.params.c_fill;
                     });
                   },
                   [](const Round& r, const HillClimbStats& s) {
                     ASSERT_FALSE(s.trace.empty());
                     EXPECT_EQ(s.trace.front().to_row, 0);
                     EXPECT_EQ(s.trace.front().delta,
                               -r.limits.min_migration_gain);
                   }});
  // A job past its user estimate (Tr < 0): Pm is 2 Cm everywhere.
  cases.push_back({"OverdueJob",
                   [] {
                     Round r = base_round();
                     late_placed(*r.fixture, 6, 2000, 1000);
                     r.fixture->simulator.run_until(2100);
                     r.params.use_sla = false;
                     r.limits.min_migration_gain = 1e-9;
                     return r;
                   },
                   [](const Round& r, const ScoreModel& m) {
                     const int fast = first_row_of(*r.fixture, "fast");
                     return any_cell(m, [&](int row, int c) {
                       return row == fast &&
                              m.breakdown(row, c).virt == 2 * 40.0;
                     });
                   },
                   nullptr});
  // Tr exactly at the branch point of p_migration for the fleet's
  // cheapest migration (fast hosts, Cm = 40): Pm = Cm / 2 there.
  cases.push_back({"RemainingTimeAtTheMigrationBranchPoint",
                   [] {
                     Round r = base_round();
                     SmallDc& f = *r.fixture;
                     const double now = f.simulator.now();
                     // Tr = Tu - elapsed = (200 + 40) - 200 = 40 = Cm.
                     const VmId v = f.dc.admit_job(
                         make_job(100, 512, 200 + 40, 1.5, now));
                     f.dc.place(v, 6);
                     f.simulator.run_until(now + 200);
                     r.limits.min_migration_gain = 1e-9;
                     return r;
                   },
                   [](const Round& r, const ScoreModel& m) {
                     const int fast = first_row_of(*r.fixture, "fast");
                     return any_cell(m, [&](int row, int c) {
                       return row == fast && m.plan_row(c) != fast &&
                              m.breakdown(row, c).virt == 40.0 / 2;
                     });
                   },
                   nullptr});
  // Tolerance above unreliability: Pfault < 0 on every host.
  cases.push_back({"NegativeFaultPenalty",
                   [] {
                     Round r = base_round();
                     SmallDc& f = *r.fixture;
                     for (HostId h : {HostId{4}, HostId{9}}) {
                       workload::Job job = make_job(100, 512, 36000);
                       job.fault_tolerance = 0.5;
                       f.admit_and_place(job, h);
                     }
                     f.simulator.run_until(f.simulator.now() + 100);
                     return r;
                   },
                   [](const Round&, const ScoreModel& m) {
                     return any_cell(m, [&](int row, int c) {
                       return m.breakdown(row, c).fault < 0;
                     });
                   },
                   nullptr});
  // A running VM whose SLA is already lost keeps a soft-infinite PSLA
  // score at home.
  cases.push_back({"SoftInfiniteSlaKeepScore",
                   [] {
                     Round r = base_round();
                     late_placed(*r.fixture, 6, 2000, 1000, 1.2);
                     r.fixture->simulator.run_until(2100);
                     return r;
                   },
                   [](const Round&, const ScoreModel& m) {
                     for (int c = 0; c < m.cols(); ++c) {
                       if (m.breakdown(m.plan_row(c), c).sla == kSoftInfScore) {
                         return true;
                       }
                     }
                     return false;
                   },
                   nullptr});
  // With a tiny migration gain, columns move away from home and their
  // home row becomes a candidate with Pvirt = Pconc = 0.
  cases.push_back({"HomeRowIsACandidateAfterAMove",
                   [] {
                     Round r = base_round();
                     r.limits.min_migration_gain = 1e-9;
                     r.limits.max_migration_moves = 64;
                     return r;
                   },
                   nullptr,
                   [](const Round&, const HillClimbStats& s) {
                     // Each migration leaves the column's home row behind
                     // as a candidate for the rest of the climb.
                     EXPECT_GT(s.migration_moves, 1);
                   }});
  // Every host but one in maintenance: the only placeable row is home to
  // the migration columns, and the floor's extrema come from it alone.
  cases.push_back({"OnlyTheHomeHostIsPlaceable",
                   [] {
                     Round r = base_round();
                     SmallDc& f = *r.fixture;
                     for (HostId h = 1; h < f.dc.num_hosts(); ++h) {
                       f.dc.set_maintenance(h, true);
                     }
                     return r;
                   },
                   [](const Round&, const ScoreModel& m) {
                     for (int row = 1; row < m.virtual_row(); ++row) {
                       if (m.placeable(row)) return false;
                     }
                     return m.placeable(0) && m.cols() > 3;
                   },
                   nullptr});
  const auto tweak = [](const char* name,
                        std::function<void(ScoreParams&)> set) {
    return FloorCase{name,
                     [set] {
                       Round r = base_round();
                       set(r.params);
                       return r;
                     },
                     nullptr, nullptr};
  };
  cases.push_back(tweak("NoEmptyHostCost",
                        [](ScoreParams& p) { p.c_empty = 0; }));
  cases.push_back(tweak("NoFillReward", [](ScoreParams& p) { p.c_fill = 0; }));
  cases.push_back(tweak("VirtOff", [](ScoreParams& p) { p.use_virt = false; }));
  cases.push_back(tweak("ConcOff", [](ScoreParams& p) { p.use_conc = false; }));
  cases.push_back(tweak("PwrOff", [](ScoreParams& p) { p.use_pwr = false; }));
  cases.push_back(tweak("SlaOff", [](ScoreParams& p) { p.use_sla = false; }));
  cases.push_back(
      tweak("FaultOff", [](ScoreParams& p) { p.use_fault = false; }));
  return cases;
}

void PrintTo(const FloorCase& fc, std::ostream* os) { *os << fc.name; }

class ScoreFloorCase : public ::testing::TestWithParam<FloorCase> {};

// Each case, climbed on the production path, replays the spec move for
// move.
TEST_P(ScoreFloorCase, MatchesReferenceMoveForMove) {
  const FloorCase& fc = GetParam();
  Round round = fc.build();
  SmallDc& f = *round.fixture;
  if (fc.exercised) {
    ScoreModel probe(f.dc, round.queue, round.params, true);
    ASSERT_TRUE(fc.exercised(round, probe))
        << "the round does not exercise the case";
  }
  expect_production_matches_spec(f, round.queue, round.params, true,
                                 round.limits);
  if (fc.check_trace) {
    ScoreModel m_ref(f.dc, round.queue, round.params, true);
    fc.check_trace(round, hill_climb_reference(m_ref, round.limits));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, ScoreFloorCase, ::testing::ValuesIn(floor_cases()),
    [](const ::testing::TestParamInfo<FloorCase>& info) {
      return std::string(info.param.name);
    });

// ---- dead blocks ------------------------------------------------------------

/// Liveness of every kArgminBlock block on a fresh incremental model of
/// the round, as the production climb reads it (1 live, 0 dead).
std::vector<int> live_blocks(const Round& r) {
  FleetState fleet;
  fleet.refresh(r.fixture->dc);
  ScoreModel m(fleet, r.fixture->dc, r.queue, r.params, true);
  std::vector<int> live;
  for (int blk = 0; blk * kArgminBlock < m.rows(); ++blk) {
    live.push_back(m.block_live(blk) ? 1 : 0);
  }
  return live;
}

struct DeadBlockCase {
  const char* name;
  std::function<Round()> build;
  /// The liveness of each block the round must have.
  std::vector<int> live;
  /// Further checks on the round and the spec's move trace; nullptr for
  /// none.
  std::function<void(const Round&, const HillClimbStats&)> check_trace;
};

/// Powers off every host of blocks `off` (by block index), the rest carry
/// the consolidation mix.
std::function<int(int)> blocks_off(std::vector<int> off) {
  return [off = std::move(off)](int h) {
    const int blk = h / kArgminBlock;
    return std::find(off.begin(), off.end(), blk) != off.end()
               ? -1
               : consolidation_mix(h);
  };
}

/// The row of some move of `s` into block `blk`, or -1.
int move_into_block(const HillClimbStats& s, int blk) {
  for (const HillClimbMove& mv : s.trace) {
    if (mv.to_row / kArgminBlock == blk) return mv.to_row;
  }
  return -1;
}

std::vector<DeadBlockCase> dead_block_cases() {
  std::vector<DeadBlockCase> cases;
  // 64 hosts: the virtual row is alone in the tail block, which holds no
  // placeable host.
  cases.push_back({"VirtualRowAloneInTheTailBlock",
                   [] { return consolidation_round(64, 4); },
                   {1, 1, 0},
                   nullptr});
  // Whole blocks powered off between live ones, and a partial tail block
  // shared by live hosts and the virtual row.
  cases.push_back({"PoweredOffBlocksBetweenLiveBlocks",
                   [] { return fleet_round(150, 5, blocks_off({1, 3})); },
                   {1, 0, 1, 0, 1},
                   [](const Round&, const HillClimbStats& s) {
                     EXPECT_GE(move_into_block(s, 4), 0);
                   }});
  // Block 1's only powered host is vetoed by an open circuit breaker: on
  // but not placeable, so the block is dead. Its running VMs are pinned.
  cases.push_back({"OnlyHostOfABlockBreakerVetoed",
                   [] {
                     constexpr HostId kVetoed = 40;
                     Round r = fleet_round(96, 4, [](int h) {
                       if (h == kVetoed) return 2;
                       return h / kArgminBlock == 1 ? -1 : consolidation_mix(h);
                     });
                     SmallDc& f = *r.fixture;
                     resilience::ResilienceConfig rcfg;
                     rcfg.enabled = true;
                     rcfg.breakers.threshold = 1;
                     rcfg.breakers.probe_after_s = 1e9;
                     r.breakers = std::make_unique<
                         resilience::ResilienceController>(
                         rcfg, f.recorder, f.dc.num_hosts());
                     f.recorder.resilience = r.breakers.get();
                     r.breakers->note_op_failure(kVetoed, f.simulator.now());
                     return r;
                   },
                   {1, 0, 1, 0},
                   [](const Round& r, const HillClimbStats&) {
                     const datacenter::Datacenter& dc = r.fixture->dc;
                     EXPECT_EQ(dc.host(40).state, datacenter::HostState::kOn);
                     EXPECT_EQ(dc.host(40).residents.size(), 2u);
                     EXPECT_FALSE(dc.placeable(40));
                   }});
  // One live block: the climb's argmin is a single block per column.
  cases.push_back({"SingleLiveBlock",
                   [] { return fleet_round(96, 4, blocks_off({0, 2})); },
                   {0, 1, 0, 0},
                   [](const Round&, const HillClimbStats& s) {
                     EXPECT_GT(s.moves, 0);
                   }});
  // Block 0's only powered host is full, so every column skips it when
  // the climb starts, and it offers the only software a queued VM needs.
  // Its residents tolerate no failure on a host of reliability 0.5, so a
  // migration soon moves one out; the queued VM then moves into block 0.
  // A climb that called block 0 dead because every column skipped it at
  // the start would never place that VM.
  cases.push_back(
      {"FullBlockOpenedByAMigration",
       [] {
         Round r = fleet_round(
             48, 0,
             [](int h) {
               if (h == 0) return 4;
               return h < kArgminBlock ? -1 : consolidation_mix(h);
             },
             [](std::vector<HostSpec>& hosts) {
               hosts[0].reliability = 0.5;
               hosts[0].software |= workload::kSwGpuRuntime;
             });
         SmallDc& f = *r.fixture;
         workload::Job gpu = make_job(100, 512, 7200, 1.5, f.simulator.now());
         gpu.software |= workload::kSwGpuRuntime;
         r.queue.push_back(f.dc.admit_job(gpu));
         r.params = ScoreBasedConfig::sb_full().params;
         return r;
       },
       {1, 1},
       [](const Round& r, const HillClimbStats& s) {
         FleetState fleet;
         fleet.refresh(r.fixture->dc);
         ScoreModel m(fleet, r.fixture->dc, r.queue, r.params, true);
         for (int c = 0; c < m.cols(); ++c) {
           EXPECT_TRUE(m.skip_block(c, 0)) << "column " << c;
         }
         EXPECT_EQ(move_into_block(s, 0), 0);
       }});
  return cases;
}

void PrintTo(const DeadBlockCase& dc, std::ostream* os) { *os << dc.name; }

class DeadBlock : public ::testing::TestWithParam<DeadBlockCase> {};

// Each case has the dead blocks it names, and the production climb, which
// never visits them, replays the spec move for move.
TEST_P(DeadBlock, MatchesReferenceMoveForMove) {
  const DeadBlockCase& dc = GetParam();
  Round round = dc.build();
  SmallDc& f = *round.fixture;
  ASSERT_EQ(live_blocks(round), dc.live);
  for (std::size_t blk = 0; blk < dc.live.size(); ++blk) {
    const bool in_range = static_cast<int>(blk) * kArgminBlock <
                          static_cast<int>(f.dc.num_hosts());
    EXPECT_EQ(dc.live[blk] != 0,
              in_range && block_has_placeable_host(f, static_cast<int>(blk)))
        << "block " << blk;
  }
  expect_production_matches_spec(f, round.queue, round.params, true,
                                 round.limits);
  if (dc.check_trace) {
    ScoreModel m_ref(f.dc, round.queue, round.params, true);
    dc.check_trace(round, hill_climb_reference(m_ref, round.limits));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, DeadBlock, ::testing::ValuesIn(dead_block_cases()),
    [](const ::testing::TestParamInfo<DeadBlockCase>& info) {
      return std::string(info.param.name);
    });

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
