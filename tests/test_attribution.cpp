// Energy & decision attribution tests: ledger integration arithmetic and
// CPU-share splitting, end-to-end conservation against RunReport energy,
// byte-determinism of run_summary.json across same-seed runs,
// decision-log capture (score terms, runner-up counterfactuals), the
// summary diff engine, and the Ppwr-ablation regression the diff must
// catch.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "core/score_based_policy.hpp"
#include "experiments/runner.hpp"
#include "experiments/setup.hpp"
#include "obs/attribution/run_summary.hpp"
#include "obs/attribution/summary_diff.hpp"
#include "obs/obs.hpp"
#include "workload/synthetic.hpp"

namespace easched {
namespace {

constexpr double kJPerKwh = 3.6e6;

// ---- fixtures --------------------------------------------------------------

workload::Workload small_workload(std::uint64_t seed = 77) {
  workload::SyntheticConfig c;
  c.seed = seed;
  c.span_seconds = 1.0 * sim::kDay;
  c.mean_jobs_per_hour = 8;
  return workload::generate(c);
}

experiments::RunConfig attribution_config(
    core::ScoreBasedConfig sb = core::ScoreBasedConfig::sb()) {
  experiments::RunConfig config;
  config.datacenter.hosts = experiments::evaluation_hosts(3, 8, 4);
  config.datacenter.seed = 5;
  config.policy_instance = std::make_unique<core::ScoreBasedPolicy>(sb);
  config.horizon_s = 90 * sim::kDay;
  return config;
}

struct AttributedRun {
  obs::Observability obs;
  experiments::RunResult result;
};

std::unique_ptr<AttributedRun> run_attributed(
    core::ScoreBasedConfig sb = core::ScoreBasedConfig::sb()) {
  auto run = std::make_unique<AttributedRun>();
  run->obs.ledger.enable();
  run->obs.decisions.enable();
  auto config = attribution_config(std::move(sb));
  config.obs = &run->obs;
  run->result =
      experiments::run_experiment(small_workload(), std::move(config));
  return run;
}

std::string summary_of(const AttributedRun& run) {
  std::ostringstream os;
  obs::write_run_summary(os, run.result.report, &run.obs);
  return os.str();
}

// ---- EnergyLedger unit tests -----------------------------------------------

TEST(EnergyLedger, IntegratesStateBucketsPiecewise) {
  obs::EnergyLedger ledger;
  ledger.enable();

  obs::EnergySample off;
  off.off_w = 10;
  ledger.set_host_power(0, 0, off);  // first sample only stamps t=0

  obs::EnergySample boot;
  boot.boot_w = 100;
  ledger.set_host_power(5, 0, boot);  // 5 s off @ 10 W = 50 J

  obs::EnergySample on;
  on.idle_w = 60;
  on.load_w = 40;
  on.used_cpu_pct = 100;
  on.shares.push_back({/*vm=*/3, /*alloc_pct=*/100});
  ledger.set_host_power(15, 0, on);  // 10 s boot @ 100 W = 1000 J

  ledger.finish(25);  // 10 s on: idle 600 J + load 400 J

  ASSERT_EQ(ledger.hosts().size(), 1u);
  const obs::HostEnergy& h = ledger.hosts()[0];
  EXPECT_DOUBLE_EQ(h.off_j, 50.0);
  EXPECT_DOUBLE_EQ(h.boot_j, 1000.0);
  EXPECT_DOUBLE_EQ(h.idle_j, 600.0);
  EXPECT_DOUBLE_EQ(h.load_j, 400.0);
  EXPECT_DOUBLE_EQ(h.total_j(), 2050.0);
  EXPECT_DOUBLE_EQ(ledger.total_j(), 2050.0);
  // The single running VM owned the whole load share.
  ASSERT_GT(ledger.vm_j().size(), 3u);
  EXPECT_DOUBLE_EQ(ledger.vm_j()[3], 400.0);
  EXPECT_DOUBLE_EQ(ledger.mgmt_j(), 0.0);
}

TEST(EnergyLedger, SplitsLoadByAllocShareWithMgmtRemainder) {
  obs::EnergyLedger ledger;
  ledger.enable();

  obs::EnergySample on;
  on.idle_w = 0;
  on.load_w = 100;
  on.used_cpu_pct = 200;  // 80 + 70 guest + 50 dom0 management
  on.shares.push_back({1, 80});
  on.shares.push_back({2, 70});
  ledger.set_host_power(0, 0, on);
  ledger.finish(10);  // 1000 J of load

  EXPECT_DOUBLE_EQ(ledger.vm_j()[1], 1000.0 * 80 / 200);
  EXPECT_DOUBLE_EQ(ledger.vm_j()[2], 1000.0 * 70 / 200);
  EXPECT_DOUBLE_EQ(ledger.mgmt_j(), 1000.0 * 50 / 200);
  EXPECT_DOUBLE_EQ(ledger.load_j(), 1000.0);
}

TEST(EnergyLedger, AttributesJoulesToTheActiveRung) {
  obs::EnergyLedger ledger;
  ledger.enable();

  obs::EnergySample on;
  on.idle_w = 50;
  ledger.set_host_power(0, 0, on);
  ledger.set_rung(10, 2);   // 10 s at rung 0 (full): 500 J
  ledger.set_rung(30, 0);   // 20 s at rung 2 (first-fit): 1000 J
  ledger.finish(40);        // 10 s back at rung 0: 500 J

  ASSERT_EQ(ledger.rung_j().size(), 3u);
  EXPECT_DOUBLE_EQ(ledger.rung_j()[0], 1000.0);
  EXPECT_DOUBLE_EQ(ledger.rung_j()[1], 0.0);
  EXPECT_DOUBLE_EQ(ledger.rung_j()[2], 1000.0);
}

TEST(EnergyLedger, TopHostsRanksDescendingWithStableTies) {
  obs::EnergyLedger ledger;
  ledger.enable();
  for (std::size_t h = 0; h < 4; ++h) {
    obs::EnergySample s;
    s.idle_w = (h == 2) ? 100.0 : 10.0;  // host 2 burns the most
    ledger.set_host_power(0, h, s);
  }
  ledger.finish(10);

  const auto top = ledger.top_hosts(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 2u);
  EXPECT_DOUBLE_EQ(top[0].second, 1000.0);
  EXPECT_EQ(top[1].first, 0u);  // tie between 0/1/3 broken by lower id
}

TEST(EnergyLedger, VmClassMapping) {
  EXPECT_STREQ(obs::vm_class_of(50), "1core");
  EXPECT_STREQ(obs::vm_class_of(100), "1core");
  EXPECT_STREQ(obs::vm_class_of(150), "2core");
  EXPECT_STREQ(obs::vm_class_of(400), "4core");
  EXPECT_STREQ(obs::vm_class_of(500), ">4core");
}

// ---- DecisionLog unit tests ------------------------------------------------

TEST(DecisionLog, SummarizesKindsTermsAndDeltas) {
  obs::DecisionLog log;
  log.enable();

  obs::DecisionRecord place;
  place.kind = obs::DecisionRecord::Kind::kPlace;
  place.terms = {1, 0, 0, 0, -5, 0, 0};  // pwr dominates by magnitude
  place.total = -4;
  place.runner_up = 7;
  place.runner_up_total = -1;
  place.delta = 3;
  log.add(place);

  obs::DecisionRecord ff;
  ff.kind = obs::DecisionRecord::Kind::kFirstFit;
  log.add(ff);  // all-zero terms: dominates nothing

  const auto s = log.summarize();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.places, 1u);
  EXPECT_EQ(s.first_fit, 1u);
  EXPECT_DOUBLE_EQ(s.term_totals[4], -5.0);  // pwr
  EXPECT_EQ(s.dominant_counts[4], 1u);
  EXPECT_EQ(s.with_runner_up, 1u);
  EXPECT_DOUBLE_EQ(s.mean_delta(), 3.0);
  EXPECT_EQ(ff.dominant_term(), obs::kDecisionTermCount);
}

// ---- end-to-end attribution ------------------------------------------------

TEST(Attribution, LedgerConservesRunReportEnergy) {
  const auto run = run_attributed();
  const double ledger_kwh = run->obs.ledger.total_j() / kJPerKwh;
  const double report_kwh = run->result.report.energy_kwh;
  ASSERT_GT(report_kwh, 0.0);
  // Acceptance criterion: per-host joules sum to the aggregate within
  // 0.1%. (Identical samples at identical times — in practice exact up to
  // summation order.)
  EXPECT_NEAR(ledger_kwh, report_kwh, report_kwh * 1e-3);

  // The per-VM + mgmt split partitions the load joules exactly.
  double vm_sum = 0;
  for (double j : run->obs.ledger.vm_j()) vm_sum += j;
  EXPECT_NEAR(vm_sum + run->obs.ledger.mgmt_j(), run->obs.ledger.load_j(),
              run->obs.ledger.load_j() * 1e-9 + 1e-6);
}

TEST(Attribution, DoesNotPerturbTheSimulation) {
  const auto attributed = run_attributed();
  const auto baseline =
      experiments::run_experiment(small_workload(), attribution_config());
  EXPECT_EQ(attributed->result.events_dispatched,
            baseline.events_dispatched);
  EXPECT_DOUBLE_EQ(attributed->result.report.energy_kwh,
                   baseline.report.energy_kwh);
  EXPECT_EQ(attributed->result.report.migrations,
            baseline.report.migrations);
}

TEST(Attribution, CapturesDecisionsWithRunnerUpCounterfactuals) {
  const auto run = run_attributed();
  const auto& records = run->obs.decisions.records();
  ASSERT_FALSE(records.empty());
  std::size_t with_runner_up = 0;
  for (const auto& r : records) {
    // Winner's terms sum to its total (left-to-right, matching
    // ScoreBreakdown's construction).
    double sum = 0;
    for (double t : r.terms) sum += t;
    EXPECT_DOUBLE_EQ(sum, r.total);
    if (r.runner_up >= 0) {
      ++with_runner_up;
      EXPECT_NE(r.runner_up, r.host);
      // The solver picked the argmin, so the runner-up can't beat it.
      EXPECT_GE(r.delta, 0.0);
      EXPECT_DOUBLE_EQ(r.delta, r.runner_up_total - r.total);
    }
  }
  EXPECT_GT(with_runner_up, 0u);
}

TEST(Attribution, RunSummaryIsByteIdenticalAcrossRuns) {
  const std::string first = summary_of(*run_attributed());
  const std::string second = summary_of(*run_attributed());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Attribution, RunSummaryRoundTripsThroughTheFlattener) {
  const auto run = run_attributed();
  const std::string doc = summary_of(*run);

  obs::FlatSummary flat;
  std::string error;
  ASSERT_TRUE(obs::flatten_json(doc, flat, &error)) << error;
  EXPECT_EQ(flat.strings.at("schema"), obs::kRunSummarySchema);
  EXPECT_EQ(flat.strings.at("policy.name"), run->result.report.policy);
  // %.9g keeps 9 significant digits, so compare relatively, not absolutely.
  const double total = run->obs.ledger.total_j();
  EXPECT_NEAR(flat.numbers.at("energy.total_j"), total, 1e-8 * total);
  EXPECT_GT(flat.numbers.at("decisions.count"), 0.0);
  // Per-host rows surfaced with dotted array paths.
  EXPECT_TRUE(flat.numbers.count("energy.hosts.0.total_j") == 1);
  // Everything ran at full solver quality: rung 0 holds all the joules.
  EXPECT_NEAR(flat.numbers.at("energy.rungs.full"),
              flat.numbers.at("energy.total_j"),
              1e-8 * flat.numbers.at("energy.total_j"));
}

// ---- diff engine -----------------------------------------------------------

TEST(SummaryDiff, SameRunProducesZeroDeltas) {
  const auto a = run_attributed();
  const auto b = run_attributed();
  obs::FlatSummary fa, fb;
  ASSERT_TRUE(obs::flatten_json(summary_of(*a), fa));
  ASSERT_TRUE(obs::flatten_json(summary_of(*b), fb));
  const auto result = obs::diff_summaries(fa, fb, {});
  EXPECT_FALSE(result.regressed());  // acceptance: same seed/config -> 0
  EXPECT_TRUE(result.deltas.empty());
}

TEST(SummaryDiff, FlagsMissingKeysAndSchemaMismatch) {
  obs::FlatSummary a, b;
  ASSERT_TRUE(obs::flatten_json(
      R"({"schema":"easched.run_summary/1","x":1,"gone":2})", a));
  ASSERT_TRUE(obs::flatten_json(
      R"({"schema":"easched.run_summary/2","x":1})", b));
  const auto result = obs::diff_summaries(a, b, {});
  EXPECT_TRUE(result.schema_mismatch);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].key, "gone");
  EXPECT_TRUE(result.deltas[0].missing_b);
  EXPECT_TRUE(result.regressed());
}

TEST(SummaryDiff, AppliesGlobalAndPrefixThresholds) {
  obs::FlatSummary a, b;
  ASSERT_TRUE(obs::flatten_json(
      R"({"schema":"s","energy":{"total":100},"sla":{"delay":10}})", a));
  ASSERT_TRUE(obs::flatten_json(
      R"({"schema":"s","energy":{"total":104},"sla":{"delay":10.2}})", b));

  obs::DiffOptions options;
  options.rel_threshold = 0.05;  // both within 5%
  EXPECT_FALSE(obs::diff_summaries(a, b, options).regressed());

  // Tighten just the energy family: 4% delta now regresses, sla survives.
  options.prefix_thresholds.emplace_back("energy.", 0.01);
  const auto result = obs::diff_summaries(a, b, options);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].key, "energy.total");
}

TEST(SummaryDiff, CatchesPpwrAblationRegression) {
  // Acceptance criterion: a run with the Ppwr term disabled consolidates
  // worse; diffing against the baseline must exit nonzero and name the
  // regressed energy metrics.
  const auto baseline = run_attributed();
  core::ScoreBasedConfig no_pwr = core::ScoreBasedConfig::sb();
  no_pwr.params.use_pwr = false;
  no_pwr.label = "SB-noPwr";
  const auto ablated = run_attributed(no_pwr);

  obs::FlatSummary fa, fb;
  ASSERT_TRUE(obs::flatten_json(summary_of(*baseline), fa));
  ASSERT_TRUE(obs::flatten_json(summary_of(*ablated), fb));
  obs::DiffOptions options;
  options.rel_threshold = 0.01;
  const auto result = obs::diff_summaries(fa, fb, options);
  EXPECT_TRUE(result.regressed());
  bool energy_named = false;
  for (const auto& d : result.deltas) {
    if (d.key.rfind("energy.", 0) == 0 || d.key == "report.energy_kwh") {
      energy_named = true;
    }
  }
  EXPECT_TRUE(energy_named)
      << format_diff(result, "baseline", "no-pwr");
}

TEST(SummaryDiff, FormatNamesTheRegressedMetrics) {
  obs::FlatSummary a, b;
  ASSERT_TRUE(obs::flatten_json(R"({"schema":"s","m":1})", a));
  ASSERT_TRUE(obs::flatten_json(R"({"schema":"s","m":2})", b));
  const auto result = obs::diff_summaries(a, b, {});
  const std::string text = obs::format_diff(result, "A", "B");
  EXPECT_NE(text.find("m: 1 -> 2"), std::string::npos);
}

}  // namespace
}  // namespace easched
