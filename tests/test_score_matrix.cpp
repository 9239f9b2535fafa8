// Tests for the ScoreModel: snapshotting, penalty composition and plan
// bookkeeping against a live datacenter.
#include <gtest/gtest.h>

#include "core/score_matrix.hpp"
#include "test_fixtures.hpp"

namespace easched::core {
namespace {

using datacenter::HostState;
using datacenter::VmId;
using datacenter::VmState;
using easched::testing::SmallDc;
using easched::testing::make_job;

ScoreParams default_params() {
  ScoreParams p;  // virt + conc + pwr on; sla + fault off
  return p;
}

TEST(ScoreModel, RowsAreAllHostsPlusVirtual) {
  SmallDc f(3);
  f.dc.power_off(2);
  f.simulator.run_until(20.0);
  const VmId v = f.dc.admit_job(make_job());
  ScoreModel m(f.dc, {v}, default_params(), false);
  EXPECT_EQ(m.rows(), 4);  // every host, row == HostId, + virtual
  EXPECT_EQ(m.virtual_row(), 3);
  EXPECT_EQ(m.cols(), 1);
  for (int r = 0; r < m.virtual_row(); ++r) EXPECT_EQ(m.host_at(r), r);
  EXPECT_TRUE(m.placeable(0));
  EXPECT_FALSE(m.placeable(2));  // off: kept as a constantly-infinite row
  EXPECT_FALSE(is_inf_score(m.cell(0, 0)));
  EXPECT_TRUE(is_inf_score(m.cell(2, 0)));
}

TEST(ScoreModel, QueuedVmsAreColumnsAtVirtualRow) {
  SmallDc f(2);
  const VmId v = f.dc.admit_job(make_job());
  ScoreModel m(f.dc, {v}, default_params(), false);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_EQ(m.plan_row(0), m.virtual_row());
  EXPECT_EQ(m.original_row(0), m.virtual_row());
  EXPECT_TRUE(m.movable(0));
  EXPECT_EQ(m.vm_at(0), v);
}

TEST(ScoreModel, VirtualRowIsInfinite) {
  SmallDc f(2);
  const VmId v = f.dc.admit_job(make_job());
  ScoreModel m(f.dc, {v}, default_params(), false);
  EXPECT_TRUE(is_inf_score(m.cell(m.virtual_row(), 0)));
}

TEST(ScoreModel, RunningVmsOnlyColumnsWhenMigrating) {
  SmallDc f(2);
  f.admit_and_place(make_job(), 0);
  f.simulator.run_until(100.0);  // running
  ScoreModel without(f.dc, {}, default_params(), false);
  EXPECT_EQ(without.cols(), 0);
  ScoreModel with(f.dc, {}, default_params(), true);
  EXPECT_EQ(with.cols(), 1);
  EXPECT_EQ(with.plan_row(0), with.original_row(0));
  EXPECT_NE(with.original_row(0), with.virtual_row());
}

TEST(ScoreModel, VmWithOperationInFlightIsExcluded) {
  SmallDc f(2);
  f.admit_and_place(make_job(), 0);  // creating
  ScoreModel m(f.dc, {}, default_params(), true);
  EXPECT_EQ(m.cols(), 0);
}

TEST(ScoreModel, NewVmCellIsCreationCostMinusPowerTerm) {
  SmallDc f(1);  // one empty medium host: Cc = 40
  const VmId v = f.dc.admit_job(make_job(100, 512));
  ScoreModel m(f.dc, {v}, default_params(), false);
  // Score = Pvirt(Cc=40) + Ppwr(Tempty=1 -> 20 - O*40), O = 0.25.
  EXPECT_NEAR(m.cell(0, 0), 40.0 + 20.0 - 10.0, 1e-9);
}

TEST(ScoreModel, ResourceInfeasibilityIsInfinite) {
  SmallDc f(1);
  f.admit_and_place(make_job(300, 512, 10000), 0);
  f.simulator.run_until(100.0);
  const VmId v = f.dc.admit_job(make_job(200, 512));
  ScoreModel m(f.dc, {v}, default_params(), false);
  EXPECT_TRUE(is_inf_score(m.cell(0, 0)));  // 300+200 > 400
}

TEST(ScoreModel, HardwareMismatchIsInfinite) {
  datacenter::DatacenterConfig config;
  config.hosts = {datacenter::HostSpec::medium()};
  config.hosts[0].arch = workload::Arch::kArm64;
  config.duration_sigma_ratio = 0;
  sim::Simulator simulator;
  metrics::Recorder recorder(1);
  datacenter::Datacenter dc(simulator, config, recorder);
  const VmId v = dc.admit_job(make_job());
  ScoreModel m(dc, {v}, default_params(), false);
  EXPECT_TRUE(is_inf_score(m.cell(0, 0)));
}

TEST(ScoreModel, ConcurrencyPenaltyCountsInFlightOps) {
  SmallDc f(2);
  f.admit_and_place(make_job(), 0);  // creating: ~40 s remaining
  const VmId v = f.dc.admit_job(make_job());
  ScoreParams with_conc = default_params();
  ScoreParams no_conc = default_params();
  no_conc.use_conc = false;
  ScoreModel a(f.dc, {v}, with_conc, false);
  ScoreModel b(f.dc, {v}, no_conc, false);
  // Host 0 busy creating -> Pconc ~= 40 extra there; host 1 clean.
  EXPECT_NEAR(a.cell(0, 0) - b.cell(0, 0), 40.0, 1.0);
  EXPECT_NEAR(a.cell(1, 0), b.cell(1, 0), 1e-9);
}

TEST(ScoreModel, PowerTermPrefersFullerHost) {
  SmallDc f(2);
  f.admit_and_place(make_job(100, 512, 10000), 0);
  f.admit_and_place(make_job(100, 512, 10000), 0);  // host 0 busy-ish
  f.simulator.run_until(200.0);
  const VmId v = f.dc.admit_job(make_job(100, 512));
  ScoreModel m(f.dc, {v}, default_params(), false);
  EXPECT_LT(m.cell(0, 0), m.cell(1, 0));  // fuller host scores lower
}

TEST(ScoreModel, FaultTermPrefersReliableHost) {
  datacenter::DatacenterConfig config;
  config.hosts = {datacenter::HostSpec::medium(),
                  datacenter::HostSpec::medium()};
  config.hosts[1].reliability = 0.9;
  config.duration_sigma_ratio = 0;
  sim::Simulator simulator;
  metrics::Recorder recorder(2);
  datacenter::Datacenter dc(simulator, config, recorder);
  const VmId v = dc.admit_job(make_job());
  ScoreParams params = default_params();
  params.use_fault = true;
  ScoreModel m(dc, {v}, params, false);
  EXPECT_LT(m.cell(0, 0), m.cell(1, 0));
  EXPECT_NEAR(m.cell(1, 0) - m.cell(0, 0), 0.1 * params.c_fail, 1e-9);
}

TEST(ScoreModel, SlaTermChargesProjectedViolation) {
  SmallDc f(1);
  // A job submitted long ago with a tight deadline cannot finish in time:
  // elapsed (1500) + Cc + work (1000) > deadline (1200) -> PSLA fires.
  workload::Job job = make_job(100, 512, 1000, 1.2);
  job.submit = 0;
  const VmId v = f.dc.admit_job(job);
  f.simulator.run_until(1500.0);
  ScoreParams with_sla = default_params();
  with_sla.use_sla = true;
  ScoreModel a(f.dc, {v}, with_sla, false);
  ScoreModel b(f.dc, {v}, default_params(), false);
  const double sla_term = a.cell(0, 0) - b.cell(0, 0);
  EXPECT_GE(sla_term, with_sla.c_sla);
}

TEST(ScoreModel, MoveUpdatesPlanAndBookkeeping) {
  SmallDc f(2);
  const VmId v = f.dc.admit_job(make_job(200, 1024));
  ScoreModel m(f.dc, {v}, default_params(), false);
  const double empty_cell_before = m.cell(1, 0);
  const auto dirty = m.move(0, 0);
  EXPECT_EQ(dirty.col, 0);
  EXPECT_EQ(dirty.row_a, -1);  // came from the virtual row
  EXPECT_EQ(dirty.row_b, 0);
  EXPECT_EQ(m.plan_row(0), 0);
  EXPECT_EQ(m.original_row(0), m.virtual_row());
  // Host 1 is untouched by the move.
  EXPECT_DOUBLE_EQ(m.cell(1, 0), empty_cell_before);
}

TEST(ScoreModel, MoveMakesHostLookOccupiedToOthers) {
  SmallDc f(1);
  const VmId a = f.dc.admit_job(make_job(300, 512));
  const VmId b = f.dc.admit_job(make_job(200, 512));
  ScoreModel m(f.dc, {a, b}, default_params(), false);
  EXPECT_FALSE(is_inf_score(m.cell(0, 1)));
  m.move(0, 0);  // plan a on host 0
  EXPECT_TRUE(is_inf_score(m.cell(0, 1)));  // 300+200 > 400 hypothetically
}

TEST(ScoreModel, MoveBackAndForthRestoresScores) {
  SmallDc f(2);
  const VmId v = f.dc.admit_job(make_job());
  ScoreModel m(f.dc, {v}, default_params(), false);
  const double h0 = m.cell(0, 0);
  const double h1 = m.cell(1, 0);
  m.move(0, 0);
  m.move(1, 0);
  m.move(0, 0);
  EXPECT_DOUBLE_EQ(m.cell(0, 0), h0);
  EXPECT_DOUBLE_EQ(m.cell(1, 0), h1);
}

TEST(ScoreModel, StayingHomeCostsNoVirtTerm) {
  SmallDc f(2);
  const VmId v = f.admit_and_place(make_job(100, 512, 10000), 0);
  f.simulator.run_until(100.0);
  ScoreModel m(f.dc, {}, default_params(), true);
  ASSERT_EQ(m.cols(), 1);
  const int home = m.plan_row(0);
  const int away = home == 0 ? 1 : 0;
  ScoreParams no_virt = default_params();
  no_virt.use_virt = false;
  ScoreModel base(f.dc, {}, no_virt, true);
  // Home cell identical with/without Pvirt; away cell differs by Pm.
  EXPECT_DOUBLE_EQ(m.cell(home, 0), base.cell(home, 0));
  EXPECT_GT(m.cell(away, 0), base.cell(away, 0));
  (void)v;
}

TEST(ScoreModel, RowAggregateRanksBusyRowsHigher) {
  SmallDc f(2);
  f.admit_and_place(make_job(300, 512, 10000), 0);
  f.simulator.run_until(100.0);
  const VmId v = f.dc.admit_job(make_job(200, 512));
  ScoreModel m(f.dc, {v}, default_params(), false);
  // Host 0 cannot take the VM (infinite cell): its aggregate must exceed
  // host 1's all-finite aggregate.
  EXPECT_GT(m.row_aggregate(0), m.row_aggregate(1));
  EXPECT_TRUE(is_inf_score(m.row_aggregate(m.virtual_row())));
}

}  // namespace
}  // namespace easched::core
