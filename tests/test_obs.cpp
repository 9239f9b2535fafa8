// Observability layer tests: tracer determinism across same-seed runs,
// export formats (JSONL + Chrome trace_event golden snippet and
// structural validation), metrics-registry semantics (inclusive-le
// histogram buckets, sorted snapshots), phase-profiler rollups, the
// null-sink guarantees, and the CLI typo warning.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/score_based_policy.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "obs/obs.hpp"
#include "support/cli.hpp"
#include "workload/synthetic.hpp"

namespace easched {
namespace {

// ---- shared fixtures -------------------------------------------------------

workload::Workload small_workload(std::uint64_t seed = 77) {
  workload::SyntheticConfig c;
  c.seed = seed;
  c.span_seconds = 1.0 * sim::kDay;
  c.mean_jobs_per_hour = 8;
  return workload::generate(c);
}

/// SB policy with migration on a small seeded fleet.
experiments::RunConfig traced_config() {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(3, 8, 4);
  config.datacenter.seed = 5;
  config.policy_instance = std::make_unique<core::ScoreBasedPolicy>(
      core::ScoreBasedConfig::sb());
  config.horizon_s = 90 * sim::kDay;
  return config;
}

struct TracedRun {
  obs::Observability obs;
  experiments::RunResult result;
};

/// Runs the small workload with tracer + profiler enabled. The bundle must
/// not move after the run starts (the recorder holds a pointer), hence the
/// heap-allocated struct.
std::unique_ptr<TracedRun> run_traced() {
  auto run = std::make_unique<TracedRun>();
  run->obs.tracer.enable();
  run->obs.profiler.enable();
  auto config = traced_config();
  config.obs = &run->obs;
  run->result = experiments::run_experiment(small_workload(), std::move(config));
  return run;
}

std::string jsonl_of(const obs::Tracer& tracer, bool include_wall) {
  std::ostringstream os;
  tracer.write_jsonl(os, include_wall);
  return os.str();
}

// ---- tracer core -----------------------------------------------------------

TEST(Tracer, NullSinkByDefault) {
  metrics::Recorder recorder(1);
  EXPECT_EQ(obs::tracer(recorder), nullptr);   // no bundle attached
  EXPECT_EQ(obs::profiler(recorder), nullptr);

  obs::Observability bundle;
  recorder.obs = &bundle;
  // Attached but not enabled: still a null sink.
  EXPECT_EQ(obs::tracer(recorder), nullptr);
  EXPECT_EQ(obs::profiler(recorder), nullptr);
  EXPECT_EQ(bundle.tracer.size(), 0u);

  bundle.tracer.enable();
  bundle.profiler.enable();
  EXPECT_EQ(obs::tracer(recorder), &bundle.tracer);
  EXPECT_EQ(obs::profiler(recorder), &bundle.profiler);
}

TEST(Tracer, RunWithoutEnabledInstrumentsEmitsNothing) {
  obs::Observability bundle;  // attached, never enabled
  auto config = traced_config();
  config.obs = &bundle;
  const auto with_obs = experiments::run_experiment(small_workload(), std::move(config));
  const auto without = experiments::run_experiment(small_workload(), traced_config());

  EXPECT_EQ(bundle.tracer.size(), 0u);
  EXPECT_TRUE(bundle.profiler.rollups().empty());
  // The null sink is also behaviourally invisible.
  EXPECT_DOUBLE_EQ(with_obs.report.energy_kwh, without.report.energy_kwh);
  EXPECT_EQ(with_obs.events_dispatched, without.events_dispatched);
  // The registry still receives the post-run publish (not hot-path).
  EXPECT_GT(bundle.registry.size(), 0u);
}

TEST(Tracer, SpanClampsNegativeDurationAndAssignsSequence) {
  obs::Tracer tracer;
  tracer.enable();
  // emit()/span() return references into the event buffer, which the
  // next emit may reallocate: read each one before emitting again.
  EXPECT_EQ(tracer.emit(5, obs::EventKind::kPowerOn).seq, 0u);
  auto& b = tracer.span(10, 8, obs::EventKind::kHostOnline);
  EXPECT_EQ(b.seq, 1u);
  EXPECT_DOUBLE_EQ(b.dur, 0.0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.emit(0, obs::EventKind::kRound).seq, 0u);
}

TEST(Tracer, JsonlSortsBySimTimeAndMasksWallArgs) {
  obs::Tracer tracer;
  tracer.enable();
  auto& round = tracer.emit(100, obs::EventKind::kRound);
  round.arg("queue", 3).arg("wall_round_ms", 1.25);
  // A span emitted later but starting earlier must sort first.
  tracer.span(50, 150, obs::EventKind::kHostOnline).host = 2;

  const std::string with_wall = jsonl_of(tracer, true);
  EXPECT_EQ(with_wall,
            "{\"t\":50,\"dur\":100,\"seq\":1,\"kind\":\"host-online\","
            "\"host\":2}\n"
            "{\"t\":100,\"seq\":0,\"kind\":\"round\","
            "\"args\":{\"queue\":3,\"wall_round_ms\":1.25}}\n");
  const std::string masked = jsonl_of(tracer, false);
  EXPECT_EQ(masked.find("wall_"), std::string::npos);
  EXPECT_NE(masked.find("\"queue\":3"), std::string::npos);
}

// ---- Chrome export ---------------------------------------------------------

TEST(ChromeTrace, GoldenSnippet) {
  obs::Tracer tracer;
  tracer.enable();
  auto& begin = tracer.emit(0, obs::EventKind::kRunBegin);
  begin.label = "SB";
  begin.arg("hosts", 2).arg("jobs", 1);
  tracer.span(1.5, 3.5, obs::EventKind::kHostOnline).host = 0;
  auto& decision = tracer.emit(2, obs::EventKind::kDecision);
  decision.vm = 0;
  decision.host = 0;
  decision.arg("total", 30);

  std::ostringstream os;
  tracer.write_chrome(os);
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"easched\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"scheduler\"}},\n"
      "{\"name\":\"run-begin\",\"cat\":\"sched\",\"ph\":\"i\",\"ts\":0,"
      "\"pid\":0,\"tid\":0,\"s\":\"t\","
      "\"args\":{\"seq\":0,\"label\":\"SB\",\"hosts\":2,\"jobs\":1}},\n"
      "{\"name\":\"host-online\",\"cat\":\"host\",\"ph\":\"X\","
      "\"ts\":1500000,\"dur\":2000000,\"pid\":0,\"tid\":1,"
      "\"args\":{\"seq\":1}},\n"
      "{\"name\":\"decision\",\"cat\":\"sched\",\"ph\":\"i\",\"ts\":2000000,"
      "\"pid\":0,\"tid\":1,\"s\":\"t\",\"args\":{\"seq\":2,\"vm\":0,"
      "\"total\":30}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);

  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(os.str(), &error)) << error;
}

TEST(ChromeTrace, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::validate_chrome_trace("", &error));
  EXPECT_FALSE(obs::validate_chrome_trace("{}", &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos);

  // Unknown phase letter.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]})",
      &error));
  EXPECT_NE(error.find("phase"), std::string::npos);

  // Complete event without its duration.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":0,"tid":0}]})",
      &error));
  EXPECT_NE(error.find("dur"), std::string::npos);

  // Missing timestamp on a timed event.
  EXPECT_FALSE(obs::validate_chrome_trace(
      R"({"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]})", &error));

  // Trailing garbage after the document.
  EXPECT_FALSE(obs::validate_chrome_trace(R"({"traceEvents":[]} junk)",
                                          &error));

  // Minimal valid documents pass.
  EXPECT_TRUE(obs::validate_chrome_trace(R"({"traceEvents":[]})", &error))
      << error;
  EXPECT_TRUE(obs::validate_chrome_trace(
      R"({"traceEvents":[{"name":"m","ph":"M","pid":0,"tid":0}]})", &error))
      << error;
}

// ---- end-to-end run traces -------------------------------------------------

TEST(RunTrace, ByteIdenticalAcrossRuns) {
  const auto first = run_traced();
  const auto second = run_traced();
  ASSERT_GT(first->obs.tracer.size(), 0u);
  // Same events, same order, same payloads once wall-clock profiling
  // fields are masked — sim results must match exactly too.
  EXPECT_EQ(jsonl_of(first->obs.tracer, false),
            jsonl_of(second->obs.tracer, false));
  EXPECT_DOUBLE_EQ(first->result.report.energy_kwh,
                   second->result.report.energy_kwh);
  EXPECT_EQ(first->result.events_dispatched,
            second->result.events_dispatched);
}

TEST(RunTrace, RunPublishesKernelCountersToRegistry) {
  // The runner must feed the simulation-kernel counters through the
  // recorder into the attached registry; they mirror the RunResult fields.
  const auto run = run_traced();
  const auto snap = run->obs.registry.snapshot();
  const auto* dispatched = snap.find("sim.events_dispatched");
  const auto* cancelled = snap.find("sim.events_cancelled");
  ASSERT_NE(dispatched, nullptr);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_GT(run->result.events_dispatched, 0u);
  EXPECT_DOUBLE_EQ(dispatched->value,
                   static_cast<double>(run->result.events_dispatched));
  EXPECT_DOUBLE_EQ(cancelled->value,
                   static_cast<double>(run->result.events_cancelled));
}

TEST(RunTrace, ChromeExportOfRealRunValidates) {
  const auto run = run_traced();
  std::ostringstream os;
  run->obs.tracer.write_chrome(os);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(os.str(), &error)) << error;
}

TEST(RunTrace, DecisionBreakdownsSumToTotal) {
  const auto run = run_traced();
  std::size_t decisions = 0;
  for (const auto& e : run->obs.tracer.events()) {
    if (e.kind != obs::EventKind::kDecision) continue;
    ++decisions;
    std::map<std::string, double> args(e.args.begin(), e.args.end());
    ASSERT_TRUE(args.count("total"));
    // Left-to-right accumulation mirrors ScoreModel::breakdown(), so the
    // equality is exact, not approximate.
    const double sum = args["req"] + args["res"] + args["virt"] +
                       args["conc"] + args["pwr"] + args["sla"] +
                       args["fault"];
    EXPECT_DOUBLE_EQ(sum, args["total"]);
    EXPECT_GE(e.vm, 0);
    EXPECT_GE(e.host, 0);
  }
  EXPECT_GT(decisions, 0u);
  // Every placed VM also produced lifecycle events.
  std::size_t arrivals = 0, finishes = 0;
  for (const auto& e : run->obs.tracer.events()) {
    arrivals += e.kind == obs::EventKind::kJobArrival;
    finishes += e.kind == obs::EventKind::kJobFinished;
  }
  EXPECT_EQ(arrivals, run->result.jobs_submitted);
  EXPECT_EQ(finishes, run->result.jobs_finished);
}

TEST(RunTrace, ProfilerCoversEveryRoundPhase) {
  const auto run = run_traced();
  const auto rollups = run->obs.profiler.rollups();
  ASSERT_FALSE(rollups.empty());
  std::size_t rounds = 0;
  for (const auto& r : rollups) {
    EXPECT_GT(r.n, 0u);
    EXPECT_GE(r.p95_ms, r.p50_ms);
    EXPECT_GE(r.max_ms, r.p99_ms);
    if (r.phase == obs::Phase::kRound) rounds = r.n;
  }
  // One kRound sample per scheduling round; the rebuild/climb/actuate
  // scopes live inside it.
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(run->obs.profiler.samples(obs::Phase::kClimb).size(), rounds);
  const std::string table = run->obs.profiler.to_string();
  EXPECT_NE(table.find("round"), std::string::npos);
  EXPECT_NE(table.find("climb"), std::string::npos);
}

// ---- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperBounds) {
  obs::Histogram h({1, 5, 10});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(1.001); // bucket 1
  h.observe(5.0);   // bucket 1
  h.observe(10.0);  // bucket 2
  h.observe(10.5);  // overflow
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 5.0 + 10.0 + 10.5);
}

TEST(MetricsRegistry, SnapshotIsSortedAndLabelled) {
  obs::MetricsRegistry registry;
  registry.counter("zeta").inc(3);
  registry.gauge("alpha").set(1.5);
  registry.counter("ops", "op=create").inc();
  registry.histogram("lat", {1, 2}).observe(1.5);
  // Re-fetching returns the same instrument.
  registry.counter("zeta").inc(2);
  EXPECT_EQ(registry.size(), 4u);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.rows.size(), 4u);
  EXPECT_EQ(snap.rows[0].name, "alpha");
  EXPECT_EQ(snap.rows[1].name, "lat");
  EXPECT_EQ(snap.rows[2].name, "ops{op=create}");
  EXPECT_EQ(snap.rows[3].name, "zeta");

  const auto* zeta = snap.find("zeta");
  ASSERT_NE(zeta, nullptr);
  EXPECT_EQ(zeta->kind, obs::InstrumentKind::kCounter);
  EXPECT_DOUBLE_EQ(zeta->value, 5.0);
  EXPECT_EQ(snap.find("nope"), nullptr);

  const auto* lat = snap.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);
  EXPECT_DOUBLE_EQ(lat->value, 1.5);  // histogram mean

  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("name,kind,value,count,sum,buckets"),
            std::string::npos);
  EXPECT_NE(csv.find("le=inf"), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("ops{op=create}"), std::string::npos);
}

TEST(MetricsRegistry, CsvQuotesNamesWithCommasAndQuotes) {
  obs::MetricsRegistry registry;
  registry.counter("ops", "op=\"a,b\"").inc(2);
  registry.gauge("plain").set(1.0);
  const auto snap = registry.snapshot();

  const std::string csv = snap.to_csv();
  // RFC 4180: the whole field wrapped in quotes, embedded quotes doubled —
  // the comma inside the label no longer splits the row.
  EXPECT_NE(csv.find("\"ops{op=\"\"a,b\"\"}\",counter,2"),
            std::string::npos);
  // Unremarkable names stay unquoted.
  EXPECT_NE(csv.find("\nplain,gauge,1"), std::string::npos);

  // The JSON export escapes the embedded quotes too.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("ops{op=\\\"a,b\\\"}"), std::string::npos);
}

TEST(MetricsRegistry, PublishGoldenKeySet) {
  // Golden catalogue of the metric families publish_run_metrics emits on
  // an attributed run. Renaming or dropping a family — including the
  // energy.* / decisions.* attribution families — must fail here loudly
  // instead of silently vanishing from every snapshot. When you add or
  // rename a metric on purpose, update this list (and bump the
  // run_summary schema if the artifact keys moved).
  auto run = std::make_unique<TracedRun>();
  run->obs.ledger.enable();
  run->obs.decisions.enable();
  auto config = traced_config();
  config.obs = &run->obs;
  run->result =
      experiments::run_experiment(small_workload(), std::move(config));

  std::set<std::string> families;
  for (const auto& row : run->obs.registry.snapshot().rows) {
    families.insert(row.name.substr(0, row.name.find('{')));
  }

  std::set<std::string> expected = {
      "ckpt.recoveries", "ckpt.taken",
      "decisions.count", "decisions.delta_total", "decisions.dominant",
      "decisions.mean_delta", "decisions.term_total",
      "decisions.with_runner_up",
      "energy.host.load_j", "energy.host.total_j", "energy.mgmt_j",
      "energy.rung.j", "energy.state.boot_j", "energy.state.idle_j",
      "energy.state.load_j", "energy.state.off_j", "energy.total_j",
      "energy.vm_class.j",
      "hosts.failures",
      "ops.creations", "ops.migrations",
      "power.turn_offs", "power.turn_ons",
      "resilience.breaker_closes", "resilience.breaker_deaths",
      "resilience.breaker_opens", "resilience.breaker_probes",
      "resilience.jobs_deferred", "resilience.jobs_shed",
      "resilience.ladder_downshifts", "resilience.ladder_upshifts",
      "resilience.solver_breaches",
      "robust.boot_failures", "robust.op_failures", "robust.op_timeouts",
      "robust.quarantines", "robust.recovery_s", "robust.retries",
      "robust.rollbacks",
      "run.max_oversubscription",
      "sim.events_cancelled", "sim.events_dispatched",
      "sla.alarms", "vm.recreates",
  };
  EXPECT_EQ(families, expected);
}

TEST(MetricsRegistry, PublishedRunMetricsMatchRecorderCounters) {
  metrics::Recorder recorder(2);
  recorder.counts.migrations = 7;
  recorder.counts.op_failures = 3;
  recorder.counts.retries = 4;
  recorder.recovery_s = {2, 120, 9000};
  recorder.max_oversubscription = 1.25;
  recorder.events_dispatched = 1234;
  recorder.events_cancelled = 56;

  obs::MetricsRegistry registry;
  obs::publish_run_metrics(recorder, registry);
  const auto snap = registry.snapshot();
  const auto value = [&snap](const char* name) {
    const auto* row = snap.find(name);
    return row == nullptr ? -1.0 : row->value;
  };
  EXPECT_DOUBLE_EQ(value("ops.migrations"), 7);
  EXPECT_DOUBLE_EQ(value("robust.op_failures"), 3);
  EXPECT_DOUBLE_EQ(value("robust.retries"), 4);
  EXPECT_DOUBLE_EQ(value("run.max_oversubscription"), 1.25);
  EXPECT_DOUBLE_EQ(value("sim.events_dispatched"), 1234);
  EXPECT_DOUBLE_EQ(value("sim.events_cancelled"), 56);
  const auto* recovery = snap.find("robust.recovery_s");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->count, 3u);
  // 9000 s exceeds the last 7200 s bound — overflow bucket.
  EXPECT_EQ(recovery->buckets.back(), 1u);

  // The RunReport robustness line reads these same rows.
  const auto report = metrics::make_report(recorder, 1000, "SB", 0.2, 0.8);
  EXPECT_EQ(report.op_failures, 3u);
  EXPECT_EQ(report.retries, 4u);
  EXPECT_EQ(report.recoveries, 3u);
  const std::string line = report.robustness_to_string();
  EXPECT_NE(line.find("op-fail 3"), std::string::npos);
  EXPECT_NE(line.find("retries 4"), std::string::npos);
}

// ---- phase profiler --------------------------------------------------------

TEST(PhaseProfiler, NullScopeIsANoOp) {
  obs::PhaseProfiler::Scope scope(nullptr, obs::Phase::kClimb);
  EXPECT_DOUBLE_EQ(scope.elapsed_ms(), 0.0);
}

TEST(PhaseProfiler, RollupsSummariseSamples) {
  obs::PhaseProfiler profiler;
  profiler.enable();
  for (double ms : {1.0, 2.0, 3.0, 4.0}) {
    profiler.record(obs::Phase::kRebuild, ms);
  }
  profiler.record(obs::Phase::kActuate, 10.0);

  const auto rollups = profiler.rollups();
  ASSERT_EQ(rollups.size(), 2u);  // only phases with samples, Phase order
  EXPECT_EQ(rollups[0].phase, obs::Phase::kRebuild);
  EXPECT_EQ(rollups[0].n, 4u);
  EXPECT_DOUBLE_EQ(rollups[0].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(rollups[0].max_ms, 4.0);
  EXPECT_EQ(rollups[1].phase, obs::Phase::kActuate);
  EXPECT_DOUBLE_EQ(rollups[1].p50_ms, 10.0);

  profiler.clear();
  EXPECT_TRUE(profiler.rollups().empty());
}

// ---- CLI -------------------------------------------------------------------

TEST(CliArgs, WarnsOnUnrecognizedOptions) {
  const char* argv[] = {"prog", "--trace=out.jsonl", "--trce=typo",
                        "--bogus"};
  support::CliArgs args(4, argv);
  EXPECT_EQ(args.get("trace", ""), "out.jsonl");
  EXPECT_EQ(args.warn_unrecognized(), 2u);  // --trce and --bogus
  EXPECT_TRUE(args.get_bool("bogus", false));
  EXPECT_EQ(args.warn_unrecognized(), 1u);  // only --trce remains unknown
}

TEST(CliArgs, NoWarningWhenEverythingIsConsumed) {
  const char* argv[] = {"prog", "--a=1", "--b"};
  support::CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_EQ(args.warn_unrecognized(), 0u);
}

}  // namespace
}  // namespace easched
