// The tracer is the fault layer's only record: a traced fault-heavy run
// carries each injected decision as exactly one `fault-injected` event
// labelled `<op>.<outcome>`. Every run counter that an event kind bumps
// (its obs::kEventKinds row) equals that kind's event count, because
// obs::record() does both; the TraceKinds cases pin the catalogue itself.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <string>

#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "test_fixtures.hpp"

namespace easched::faults {
namespace {

using easched::testing::make_chaos_plan;
using easched::testing::make_job;
using easched::testing::run_traced;
using easched::testing::small_config;
using easched::testing::small_week;
using easched::testing::TracedRun;
using obs::EventKind;

// ---- the event catalogue ----------------------------------------------------

struct PinnedKind {
  EventKind kind;
  const char* name;
  const char* category;
  std::uint64_t metrics::Counters::*counter;
};

/// The catalogue as traces and dashboards know it: renaming a kind,
/// moving it to another Chrome category or re-wiring its counter changes
/// every trace and metrics file, so it must show up here first.
const PinnedKind kPinned[] = {
    {EventKind::kRunBegin, "run-begin", "sched", nullptr},
    {EventKind::kJobArrival, "job-arrival", "sched", nullptr},
    {EventKind::kRound, "round", "sched", nullptr},
    {EventKind::kDecision, "decision", "sched", nullptr},
    {EventKind::kCreateStart, "create-start", "vm",
     &metrics::Counters::creations},
    {EventKind::kVmReady, "vm-ready", "vm", nullptr},
    {EventKind::kJobFinished, "job-finished", "vm", nullptr},
    {EventKind::kMigrateStart, "migrate-start", "vm",
     &metrics::Counters::migrations},
    {EventKind::kMigrateDone, "migrate-done", "vm", nullptr},
    {EventKind::kMigrateRollback, "migrate-rollback", "vm",
     &metrics::Counters::rollbacks},
    {EventKind::kPowerOn, "power-on", "host", &metrics::Counters::turn_ons},
    {EventKind::kHostOnline, "host-online", "host", nullptr},
    {EventKind::kPowerOff, "power-off", "host", &metrics::Counters::turn_offs},
    {EventKind::kHostOff, "host-off", "host", nullptr},
    {EventKind::kHostFailed, "host-failed", "host",
     &metrics::Counters::failures},
    {EventKind::kHostRepaired, "host-repaired", "host", nullptr},
    {EventKind::kBootFailed, "boot-failed", "host",
     &metrics::Counters::boot_failures},
    {EventKind::kFaultInjected, "fault-injected", "faults", nullptr},
    {EventKind::kOpFailed, "op-failed", "faults",
     &metrics::Counters::op_failures},
    {EventKind::kQuarantine, "quarantine", "host",
     &metrics::Counters::quarantines},
    {EventKind::kUnquarantine, "unquarantine", "host", nullptr},
    {EventKind::kSlaAlarm, "sla-alarm", "sched", &metrics::Counters::sla_alarms},
    {EventKind::kRetry, "retry", "sched", &metrics::Counters::retries},
    {EventKind::kInvariantViolation, "invariant-violation", "validate",
     nullptr},
    {EventKind::kLadderShift, "ladder-shift", "resilience", nullptr},
    {EventKind::kJobShed, "job-shed", "resilience",
     &metrics::Counters::jobs_shed},
    {EventKind::kJobDeferred, "job-deferred", "resilience",
     &metrics::Counters::jobs_deferred},
    {EventKind::kBreakerOpen, "breaker-open", "resilience",
     &metrics::Counters::breaker_opens},
    {EventKind::kBreakerProbe, "breaker-probe", "resilience",
     &metrics::Counters::breaker_probes},
    {EventKind::kBreakerClose, "breaker-close", "resilience",
     &metrics::Counters::breaker_closes},
    {EventKind::kHostDead, "host-dead", "resilience",
     &metrics::Counters::breaker_deaths},
    {EventKind::kAlertFire, "alert-fire", "telemetry", nullptr},
    {EventKind::kAlertResolve, "alert-resolve", "telemetry", nullptr},
};

TEST(TraceKinds, EveryKindKeepsItsNameCategoryAndCounter) {
  ASSERT_EQ(std::size(kPinned), std::size(obs::kEventKinds));
  for (const PinnedKind& pin : kPinned) {
    const obs::EventKindRow& row = obs::row(pin.kind);
    EXPECT_EQ(row.kind, pin.kind) << pin.name;
    EXPECT_STREQ(obs::to_string(pin.kind), pin.name);
    EXPECT_STREQ(row.category, pin.category) << pin.name;
    EXPECT_TRUE(row.counter == pin.counter) << pin.name;
  }
}

TEST(TraceKinds, NamesAreUnique) {
  std::set<std::string> names;
  for (const obs::EventKindRow& row : obs::kEventKinds) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
  }
}

TEST(TraceKinds, NoCounterIsNamedByTwoRows) {
  for (std::size_t i = 0; i < std::size(obs::kEventKinds); ++i) {
    const obs::EventKindRow& a = obs::kEventKinds[i];
    if (a.counter == nullptr) continue;
    for (std::size_t j = i + 1; j < std::size(obs::kEventKinds); ++j) {
      EXPECT_FALSE(obs::kEventKinds[j].counter == a.counter)
          << a.name << " and " << obs::kEventKinds[j].name;
    }
  }
}

TEST(TraceKinds, RecordCountsWithOrWithoutATracer) {
  metrics::Recorder rec(1);
  EXPECT_EQ(obs::record(rec, 5, EventKind::kPowerOn), nullptr);
  EXPECT_EQ(obs::record_span(rec, 5, 9, EventKind::kHostOnline), nullptr);
  EXPECT_EQ(rec.counts.turn_ons, 1u);

  obs::Observability bundle;
  bundle.tracer.enable();
  rec.obs = &bundle;
  obs::TraceEvent* on = obs::record(rec, 7, EventKind::kPowerOn);
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->kind, EventKind::kPowerOn);
  EXPECT_EQ(on->t, 7);
  EXPECT_EQ(rec.counts.turn_ons, 2u);
  obs::TraceEvent* online = obs::record_span(rec, 7, 10, EventKind::kHostOnline);
  ASSERT_NE(online, nullptr);
  EXPECT_EQ(online->t, 7);
  EXPECT_EQ(online->dur, 3);
  EXPECT_EQ(bundle.tracer.size(), 2u);
}

// ---- traced runs ------------------------------------------------------------

/// Every actuator op can misbehave (make_chaos_plan), host 2 is a lemon,
/// nodes crash, circuit breakers trip, probe, close and write hosts off,
/// and the driver raises SLA alarms: each fault and recovery kind shows up.
std::unique_ptr<TracedRun> run_chaos() {
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
  config.resilience.enabled = true;
  config.resilience.breakers.threshold = 2;
  config.resilience.breakers.probe_after_s = 120;
  config.resilience.breakers.dead_after = 2;
  config.driver.sla_alarms = true;
  config.horizon_s = 60 * sim::kDay;
  return run_traced(small_week(), std::move(config));
}

/// A burst of 40 arrivals 10 s apart onto five hosts behind a bounded
/// queue: admission control defers and sheds.
std::unique_ptr<TracedRun> run_admission() {
  workload::Workload jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(make_job(100, 512, 2000 + 100 * (i % 7), 1.5,
                            /*submit=*/10.0 * i));
  }
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(1, 3, 1);
  config.datacenter.seed = 5;
  config.policy = "SB";
  config.resilience.enabled = true;
  config.resilience.max_pending = 12;
  config.resilience.defer_fill = 0.5;
  config.resilience.shed_fill = 1.0;
  config.resilience.defer_delay_s = 120;
  config.horizon_s = 30 * sim::kDay;
  return run_traced(jobs, std::move(config));
}

TEST(FaultTrace, EveryFaultIsTracedOnce) {
  const auto run = run_chaos();
  const auto& result = run->result;

  // One `fault-injected` event per injected decision, labelled with the
  // fault plan's own `<op>.<outcome>` key grammar.
  EXPECT_EQ(run->count(EventKind::kFaultInjected), result.faults_injected);
  std::set<std::string> ops_seen;
  for (const obs::TraceEvent& e : run->obs.tracer.events()) {
    if (e.kind != EventKind::kFaultInjected) continue;
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

  // Every counter an event kind bumps equals that kind's event count in
  // both runs, and between them the runs bump every such counter.
  const auto admission = run_admission();
  for (const obs::EventKindRow& row : obs::kEventKinds) {
    if (row.counter == nullptr) continue;
    std::uint64_t total = 0;
    for (const TracedRun* r : {run.get(), admission.get()}) {
      const std::uint64_t counted = r->result.report.*row.counter;
      EXPECT_EQ(counted, r->count(row.kind)) << row.name;
      total += counted;
    }
    EXPECT_GT(total, 0u) << row.name;
  }
}

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The chaos run's byte-deterministic trace, pinned. It injects both a
/// failure and a hang on each of the five ops, so the pin covers every
/// actuator's failure and deadline path: a change to how an operation
/// starts, completes, fails or times out moves it. Move the pin only in a
/// change that says why.
TEST(FaultTrace, ChaosTraceIsPinned) {
  const auto run = run_chaos();
  std::set<std::string> injected;
  for (const obs::TraceEvent& e : run->obs.tracer.events()) {
    if (e.kind == EventKind::kFaultInjected) injected.insert(e.label);
  }
  for (std::size_t i = 0; i < kNumFaultOps; ++i) {
    const std::string op = to_string(static_cast<FaultOp>(i));
    EXPECT_EQ(injected.count(op + ".fail"), 1u) << op;
    EXPECT_EQ(injected.count(op + ".hang"), 1u) << op;
  }
  const std::string jsonl = run->jsonl();
  EXPECT_EQ(run->obs.tracer.size(), 36165u);
  EXPECT_EQ(fnv1a(jsonl), 0xa705d7dd77c59208ULL);
}

}  // namespace
}  // namespace easched::faults
