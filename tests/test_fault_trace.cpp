// The tracer is the fault layer's only record: a traced fault-heavy run
// carries each injected decision as exactly one `fault-injected` event
// labelled `<op>.<outcome>`, and each recovery-side fault (op failure,
// boot failure, node crash, quarantine) as one event whose count matches
// the run report's counter.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>

#include "faults/fault_plan.hpp"
#include "obs/trace.hpp"
#include "test_fixtures.hpp"

namespace easched::faults {
namespace {

using easched::testing::make_chaos_plan;
using easched::testing::run_traced;
using easched::testing::small_config;
using easched::testing::small_week;

TEST(FaultTrace, EveryFaultIsTracedOnce) {
  // Every actuator op can misbehave (make_chaos_plan), host 2 is a lemon,
  // and nodes crash: each kind of fault and recovery event shows up.
  auto config = small_config("SB");
  config.datacenter.inject_failures = true;
  config.datacenter.mean_repair_s = 400;
  for (std::size_t i = 0; i < config.datacenter.hosts.size(); i += 2) {
    config.datacenter.hosts[i].reliability = 0.9;
  }
  config.datacenter.checkpoint.enabled = true;
  config.datacenter.checkpoint.period_s = 600;
  config.datacenter.checkpoint.duration_s = 5;
  config.faults = make_chaos_plan(3);
  config.horizon_s = 60 * sim::kDay;
  const auto run = run_traced(small_week(), std::move(config));
  const auto& result = run->result;
  const auto& report = result.report;

  // One `fault-injected` event per injected decision, labelled with the
  // fault plan's own `<op>.<outcome>` key grammar.
  EXPECT_EQ(run->count(obs::EventKind::kFaultInjected), result.faults_injected);
  std::set<std::string> ops_seen;
  for (const obs::TraceEvent& e : run->obs.tracer.events()) {
    if (e.kind != obs::EventKind::kFaultInjected) continue;
    const auto dot = e.label.find('.');
    ASSERT_NE(dot, std::string::npos) << e.label;
    const std::string op = e.label.substr(0, dot);
    const std::string outcome = e.label.substr(dot + 1);
    bool known_op = false;
    for (std::size_t i = 0; i < kNumFaultOps; ++i) {
      known_op |= op == to_string(static_cast<FaultOp>(i));
    }
    EXPECT_TRUE(known_op) << e.label;
    EXPECT_TRUE(outcome == "fail" || outcome == "hang" || outcome == "slow")
        << e.label;
    ops_seen.insert(op);
  }
  EXPECT_EQ(ops_seen.size(), kNumFaultOps)
      << ::testing::PrintToString(ops_seen);

  // Every recovery-side fault is one event, matching the report's counters.
  EXPECT_GT(report.op_failures, 0u);
  EXPECT_GT(report.quarantines, 0u);
  EXPECT_GT(report.boot_failures, 0u);
  EXPECT_GT(report.failures, 0u);
  EXPECT_EQ(run->count(obs::EventKind::kOpFailed), report.op_failures);
  EXPECT_EQ(run->count(obs::EventKind::kQuarantine), report.quarantines);
  EXPECT_EQ(run->count(obs::EventKind::kBootFailed), report.boot_failures);
  EXPECT_EQ(run->count(obs::EventKind::kHostFailed), report.failures);
}

}  // namespace
}  // namespace easched::faults
