// Tests for the lambda_min/lambda_max node power controller.
#include <gtest/gtest.h>

#include "policies/backfilling.hpp"
#include "sched/power_controller.hpp"
#include "test_fixtures.hpp"

namespace easched::sched {
namespace {

using datacenter::HostId;
using datacenter::HostState;
using datacenter::VmId;
using easched::testing::SmallDc;
using easched::testing::make_job;

/// The backfilling policy's power picks, with every hook call counted.
struct CountingPolicy : policies::BackfillingPolicy {
  int power_on_calls = 0;
  int power_off_calls = 0;

  HostId choose_power_on(const SchedContext& ctx,
                         const std::vector<HostId>& off_hosts) override {
    ++power_on_calls;
    return BackfillingPolicy::choose_power_on(ctx, off_hosts);
  }
  HostId choose_power_off(const SchedContext& ctx,
                          const std::vector<HostId>& idle_hosts) override {
    ++power_off_calls;
    return BackfillingPolicy::choose_power_off(ctx, idle_hosts);
  }
};

struct ControllerHarness : SmallDc {
  CountingPolicy policy;
  support::Rng rng{5};
  std::vector<VmId> queue;

  explicit ControllerHarness(std::size_t n,
                             datacenter::DatacenterConfig base = {})
      : SmallDc(n, std::move(base)) {}

  void update(PowerControllerConfig config) {
    PowerController controller(config);
    SchedContext ctx{dc, queue, rng};
    controller.update(ctx, dc, policy);
  }
};

TEST(PowerController, TurnsOffIdleNodesBelowLambdaMin) {
  ControllerHarness f(10);
  // 1 working node out of 10 online: ratio 0.1 < 0.3 -> shed idle nodes
  // until ratio >= 0.3 (1/4 = 0.25 < 0.3, 1/3 = 0.33 >= 0.3 -> 3 online).
  f.admit_and_place(make_job(), 0);
  f.update({0.30, 0.90, 1, true});
  EXPECT_EQ(f.dc.online_count(), 3);
  EXPECT_EQ(f.dc.host(0).state, HostState::kOn);  // working host untouched
}

TEST(PowerController, TurnsOnNodesAboveLambdaMax) {
  datacenter::DatacenterConfig base;
  base.initially_on = 2;
  ControllerHarness f(10, base);
  f.admit_and_place(make_job(), 0);
  f.admit_and_place(make_job(), 1);
  // 2/2 = 1.0 > 0.9: boot nodes until 2/n <= 0.9 -> n = 3.
  f.update({0.30, 0.90, 1, true});
  EXPECT_EQ(f.dc.online_count(), 3);
  EXPECT_EQ(f.recorder.counts.turn_ons, 1u);
}

TEST(PowerController, RespectsMinexec) {
  ControllerHarness f(10);
  // Nothing working at all; minexec keeps 2 nodes online.
  f.update({0.30, 0.90, 2, true});
  EXPECT_EQ(f.dc.online_count(), 2);
}

TEST(PowerController, NoWorkMinexecOneKeepsOneNode) {
  ControllerHarness f(5);
  f.update({0.30, 0.90, 1, true});
  EXPECT_EQ(f.dc.online_count(), 1);
}

TEST(PowerController, DisabledControllerDoesNothing) {
  ControllerHarness f(10);
  f.update({0.30, 0.90, 1, false});
  EXPECT_EQ(f.dc.online_count(), 10);
}

TEST(PowerController, BandIsStable) {
  ControllerHarness f(10);
  for (int i = 0; i < 3; ++i) f.admit_and_place(make_job(), i);
  f.update({0.30, 0.90, 1, true});
  const int online = f.dc.online_count();
  // Re-running the controller on an unchanged system must change nothing;
  // neither side acts, so neither hook runs.
  f.policy.power_on_calls = f.policy.power_off_calls = 0;
  f.update({0.30, 0.90, 1, true});
  EXPECT_EQ(f.dc.online_count(), online);
  EXPECT_EQ(f.policy.power_on_calls, 0);
  EXPECT_EQ(f.policy.power_off_calls, 0);
  EXPECT_GE(3.0 / online, 0.30);
  EXPECT_LE(3.0 / online, 0.90);
}

/// One busy medium host on, then three off hosts of different specs, and
/// a queued VM too large for what is left on the busy host.
struct StarvedHarness : ControllerHarness {
  StarvedHarness() : ControllerHarness(4, [] {
    datacenter::DatacenterConfig base;
    base.hosts = {datacenter::HostSpec::medium(), datacenter::HostSpec::slow(),
                  datacenter::HostSpec::fast(), datacenter::HostSpec::medium()};
    base.initially_on = 1;
    return base;
  }()) {
    admit_and_place(make_job(300, 512, 50000), 0);
    simulator.run_until(100.0);
    queue.push_back(dc.admit_job(make_job(200, 512)));
  }
};

TEST(PowerController, QueuedVmThatFitsNowhereForcesTurnOn) {
  StarvedHarness f;
  // Ratio is 1/1 = 1 > 0.9 anyway; make lambda_max huge to isolate the
  // starvation rule.
  PowerControllerConfig config{0.0, 100.0, 1, true};
  f.update(config);
  EXPECT_EQ(f.dc.online_count(), 2);  // booted one node for the stuck VM
  EXPECT_EQ(f.policy.power_on_calls, 1);
  EXPECT_EQ(f.dc.host(2).state, HostState::kBooting);  // the fast booter
}

TEST(PowerController, NoForcedTurnOnWhileBooting) {
  StarvedHarness f;
  PowerControllerConfig config{0.0, 100.0, 1, true};
  f.update(config);
  f.update(config);  // second call: a node is already booting
  EXPECT_EQ(f.dc.online_count(), 2);
  EXPECT_EQ(f.policy.power_on_calls, 1);
}

TEST(PowerController, NeverTurnsOffWhileQueueNonEmpty) {
  ControllerHarness f(5);
  f.queue.push_back(f.dc.admit_job(make_job()));
  f.update({0.99, 1.0, 1, true});  // aggressive shedding configured
  EXPECT_EQ(f.dc.online_count(), 5);
}

TEST(PowerController, FailedHostsAreNotTurnOnCandidates) {
  datacenter::DatacenterConfig base;
  base.inject_failures = true;
  base.mean_repair_s = 1e9;  // stays failed forever
  ControllerHarness f(2, [&] {
    base.hosts.assign(2, datacenter::HostSpec::medium());
    base.hosts[1].reliability = 1e-12;  // MTBF ~1 ms: dies immediately
    return base;
  }());
  f.simulator.run_until(10.0);  // host 1 fails
  ASSERT_EQ(f.dc.host(1).state, HostState::kFailed);
  f.admit_and_place(make_job(), 0);
  f.update({0.30, 0.90, 1, true});
  // Controller wants more nodes (1/1 > 0.9) but none is available.
  EXPECT_EQ(f.dc.host(1).state, HostState::kFailed);
  EXPECT_EQ(f.dc.online_count(), 1);
}

TEST(PowerController, DefaultPolicyHooksPickSensibleNodes) {
  datacenter::DatacenterConfig base;
  base.hosts = {datacenter::HostSpec::slow(), datacenter::HostSpec::fast(),
                datacenter::HostSpec::medium()};
  base.initially_on = 0;
  base.duration_sigma_ratio = 0;
  sim::Simulator simulator;
  metrics::Recorder recorder(3);
  datacenter::Datacenter dc(simulator, base, recorder);
  policies::BackfillingPolicy policy;
  support::Rng rng{1};
  std::vector<VmId> queue{dc.admit_job(make_job())};
  SchedContext ctx{dc, queue, rng};

  // Turn-on hook prefers the fast-booting node.
  EXPECT_EQ(policy.choose_power_on(ctx, {0, 1, 2}), 1u);
  // Turn-off hook sheds the slowest node first.
  EXPECT_EQ(policy.choose_power_off(ctx, {0, 1, 2}), 0u);
}

/// Returns fixed hosts from both power hooks, whatever the candidates.
struct FixedPickPolicy : policies::BackfillingPolicy {
  HostId on_pick = 0;
  HostId off_pick = 0;

  HostId choose_power_on(const SchedContext&,
                         const std::vector<HostId>&) override {
    return on_pick;
  }
  HostId choose_power_off(const SchedContext&,
                          const std::vector<HostId>&) override {
    return off_pick;
  }
};

// A power-off pick outside the idle list (here an idle host in
// maintenance, which the controller never offers) is a policy bug: the
// controller asserts before it acts on the pick.
TEST(PowerControllerDeathTest, PowerOffPickOutsideTheIdleListAborts) {
  SmallDc f(4);
  f.admit_and_place(make_job(), 0);
  f.dc.set_maintenance(3, true);
  ASSERT_TRUE(f.dc.host(3).is_idle_on());
  FixedPickPolicy policy;
  policy.off_pick = 3;
  support::Rng rng{1};
  const std::vector<VmId> queue;
  SchedContext ctx{f.dc, queue, rng};
  PowerController controller({0.30, 0.90, 1, true});
  EXPECT_DEATH(controller.update(ctx, f.dc, policy), "it != idle.end");
}

// Likewise a power-on pick outside the off list: the assertion fires
// before the Datacenter is asked to boot the host.
TEST(PowerControllerDeathTest, PowerOnPickOutsideTheOffListAborts) {
  datacenter::DatacenterConfig base;
  base.initially_on = 0;
  SmallDc f(3, base);
  f.dc.set_maintenance(2, true);  // off, but not a turn-on candidate
  FixedPickPolicy policy;
  policy.on_pick = 2;
  support::Rng rng{1};
  const std::vector<VmId> queue{f.dc.admit_job(make_job())};
  SchedContext ctx{f.dc, queue, rng};
  PowerController controller({0.30, 0.90, 1, true});
  EXPECT_DEATH(controller.update(ctx, f.dc, policy), "it != off.end");
}

}  // namespace
}  // namespace easched::sched
