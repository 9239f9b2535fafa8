// Live telemetry plane: snapshot capture, ring eviction, JSONL/Prometheus
// serialisation, the alert engine's for-duration and hysteresis semantics,
// and the byte-identity of the stream across same-seed runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "experiments/runner.hpp"
#include "obs/attribution/run_summary.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry/dashboard.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "test_fixtures.hpp"

namespace easched::obs {
namespace {

// ---- SnapshotRing ----------------------------------------------------------

TelemetrySnapshot snap_at(double t, std::uint64_t seq = 0) {
  TelemetrySnapshot s;
  s.t = t;
  s.seq = seq;
  return s;
}

TEST(SnapshotRing, EvictsOldestAtCapacity) {
  SnapshotRing ring(3);
  for (int i = 0; i < 5; ++i) {
    ring.push(snap_at(60.0 * i, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.total(), 5u);  // eviction does not lose the count
  EXPECT_EQ(ring.at(0).seq, 2u);  // oldest retained
  EXPECT_EQ(ring.at(1).seq, 3u);
  EXPECT_EQ(ring.latest().seq, 4u);
  EXPECT_DOUBLE_EQ(ring.latest().t, 240.0);
}

TEST(SnapshotRing, ZeroCapacityRetainsNothingButCounts) {
  SnapshotRing ring(0);
  ring.push(snap_at(0));
  ring.push(snap_at(60));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.total(), 2u);
}

TEST(SnapshotRing, ClearIsAFullReset) {
  SnapshotRing ring(4);
  ring.push(snap_at(0));
  ring.push(snap_at(60));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.total(), 0u);
  ring.push(snap_at(120, 9));
  EXPECT_EQ(ring.latest().seq, 9u);
}

// ---- serialisation ---------------------------------------------------------

TelemetrySnapshot sample_snapshot() {
  TelemetrySnapshot s;
  s.seq = 7;
  s.t = 420;
  s.hosts_on = 3;
  s.hosts_booting = 1;
  s.hosts_off = 2;
  s.hosts_failed = 1;
  s.working = 2;
  s.online = 4;
  s.ratio = 0.5;
  s.lambda_min = 0.3;
  s.lambda_max = 0.9;
  s.power_w = 1234.5;
  s.energy_kwh = 0.125;
  s.queue = 5;
  s.backoff = 2;
  s.running = 9;
  s.deferred = 3;
  s.shed = 1;
  s.sla = 98.75;
  s.rung = 2;
  s.breakers_open = 1;
  s.active_alerts = {"high-power"};
  s.hosts = {{2, 0, 75.5F, 280.0F}, {1, 1, 0.0F, 230.0F}};
  return s;
}

TEST(TelemetryJsonl, RoundTripsEveryField) {
  // Every scalar row gets a value no other row has (its 1-based position,
  // plus a quarter for doubles), so a reader that swapped two fields fails.
  TelemetrySnapshot snap = sample_snapshot();
  for (std::size_t i = 0; i < std::size(kSnapshotFields); ++i) {
    std::visit(
        [&](auto m) {
          using T = std::remove_reference_t<decltype(snap.*m)>;
          snap.*m = static_cast<T>(static_cast<double>(i + 1) +
                                   (std::is_floating_point_v<T> ? 0.25 : 0));
        },
        kSnapshotFields[i].member);
  }
  std::ostringstream os;
  write_snapshot_jsonl(os, snap);
  const std::string line = os.str();
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line

  TelemetrySnapshot back;
  ASSERT_TRUE(parse_snapshot_jsonl(line, &back));
  for (const SnapshotField& f : kSnapshotFields) {
    EXPECT_EQ(f.value(back), f.value(snap)) << f.key;
  }
  ASSERT_EQ(back.active_alerts.size(), 1u);
  EXPECT_EQ(back.active_alerts[0], "high-power");
  ASSERT_EQ(back.hosts.size(), 2u);
  EXPECT_EQ(back.hosts[0].state, 2);
  EXPECT_EQ(back.hosts[1].health, 1);
  EXPECT_FLOAT_EQ(back.hosts[0].util_pct, 75.5F);
  EXPECT_FLOAT_EQ(back.hosts[1].power_w, 230.0F);
}

TEST(TelemetrySchema, NamesAreUnique) {
  // One row per scalar: a JSONL key, a Prometheus sample (family + label)
  // and an alert-series name each name exactly one field.
  std::set<std::string> keys;
  std::set<std::pair<std::string, std::string>> samples;
  std::set<std::string> alerts;
  for (const SnapshotField& f : kSnapshotFields) {
    EXPECT_TRUE(keys.insert(f.key).second) << f.key;
    EXPECT_TRUE(samples.emplace(f.family, f.label).second) << f.family;
    if (f.alert != nullptr) {
      EXPECT_TRUE(alerts.insert(f.alert).second) << f.alert;
    }
  }
  EXPECT_FALSE(alerts.empty());
}

TEST(TelemetrySchema, RowsFollowTheStructOrder) {
  // The table lists the members in declaration order, each once, so a row
  // wired to a neighbour's member fails here even though it round-trips.
  const TelemetrySnapshot snap;
  std::ptrdiff_t prev = -1;
  for (const SnapshotField& f : kSnapshotFields) {
    const std::ptrdiff_t offset = std::visit(
        [&snap](auto m) {
          return reinterpret_cast<const char*>(&(snap.*m)) -
                 reinterpret_cast<const char*>(&snap);
        },
        f.member);
    EXPECT_GT(offset, prev) << f.key;
    prev = offset;
  }
}

TEST(TelemetryJsonl, RejectsNonSnapshotLines) {
  TelemetrySnapshot out;
  EXPECT_FALSE(parse_snapshot_jsonl("", &out));
  EXPECT_FALSE(parse_snapshot_jsonl("{\"kind\":\"run-begin\"}", &out));
  EXPECT_FALSE(parse_snapshot_jsonl("not json at all", &out));
}

TEST(TelemetryJsonl, RejectsNumbersOutsideTheFieldRange) {
  // Telemetry files are outside input: a number that does not fit its
  // field rejects the line instead of wrapping (or worse) on conversion.
  std::ostringstream os;
  write_snapshot_jsonl(os, sample_snapshot());
  const std::string line = os.str();
  const auto with = [&line](const std::string& from, const std::string& to) {
    std::string edited = line;
    edited.replace(edited.find(from), from.size(), to);
    return edited;
  };
  TelemetrySnapshot out;
  ASSERT_TRUE(parse_snapshot_jsonl(line, &out));
  EXPECT_FALSE(parse_snapshot_jsonl(with("\"seq\":7", "\"seq\":-1"), &out));
  EXPECT_FALSE(parse_snapshot_jsonl(with("\"on\":3", "\"on\":1e12"), &out));
  EXPECT_FALSE(parse_snapshot_jsonl(with("[2,0,", "[300,0,"), &out));
  EXPECT_TRUE(parse_snapshot_jsonl(with("[2,0,", "[255,0,"), &out));
  EXPECT_EQ(out.hosts[0].state, 255);
}

// The Prometheus exposition is an external contract: scrape configs and
// recording rules key on these family names and labels. Any diff against
// the golden file is an intentional schema change — regenerate with
//   EASCHED_REGEN_GOLDEN=1 ./tests/test_telemetry \
//       --gtest_filter=TelemetryProm.MatchesGoldenExposition
TEST(TelemetryProm, MatchesGoldenExposition) {
  const std::string path =
      std::string(EASCHED_TEST_DATA_DIR) + "/telemetry_prom.golden";
  std::ostringstream os;
  write_snapshot_prom(os, sample_snapshot());
  const std::string got = os.str();

  if (std::getenv("EASCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << path << " missing; regenerate with EASCHED_REGEN_GOLDEN=1";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

// ---- alert spec parsing ----------------------------------------------------

TEST(AlertParse, ThresholdWithOptions) {
  const auto rules =
      parse_alert_rules("power_w>25000 for=300 resolve=24000 name=hot");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_STREQ(kSnapshotFields[rules[0].series].alert, "power_w");
  EXPECT_EQ(rules[0].kind, AlertKind::kThreshold);
  EXPECT_TRUE(rules[0].above);
  EXPECT_DOUBLE_EQ(rules[0].bound, 25000);
  EXPECT_DOUBLE_EQ(rules[0].for_s, 300);
  EXPECT_TRUE(rules[0].has_resolve);
  EXPECT_DOUBLE_EQ(rules[0].resolve, 24000);
  EXPECT_EQ(rules[0].name, "hot");
}

TEST(AlertParse, RateBurnAndCommaList) {
  const auto rules = parse_alert_rules(
      "queue_depth rate>0.05 window=600,"
      "sla_satisfaction burn>2x window=1800 slo=100 budget=5");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].kind, AlertKind::kRate);
  EXPECT_STREQ(kSnapshotFields[rules[0].series].alert, "queue_depth");
  EXPECT_DOUBLE_EQ(rules[0].window_s, 600);
  EXPECT_EQ(rules[1].kind, AlertKind::kBurn);
  EXPECT_DOUBLE_EQ(rules[1].bound, 2);  // "2x" multiplier
  EXPECT_DOUBLE_EQ(rules[1].slo, 100);
  EXPECT_DOUBLE_EQ(rules[1].budget, 5);
}

TEST(AlertParse, BelowComparatorAndDefaults) {
  const auto rules = parse_alert_rules("working_ratio<0.3");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_FALSE(rules[0].above);
  EXPECT_DOUBLE_EQ(rules[0].for_s, 0);
  EXPECT_FALSE(rules[0].has_resolve);
  EXPECT_EQ(rules[0].name, "working_ratio<0.3");  // name defaults to spec
}

TEST(AlertParse, RejectsGarbage) {
  EXPECT_THROW(parse_alert_rules("no_such_series>1"), std::invalid_argument);
  EXPECT_THROW(parse_alert_rules("power_w>abc"), std::invalid_argument);
  EXPECT_THROW(parse_alert_rules("power_w>1 bogus=2"),
               std::invalid_argument);
}

// ---- alert engine semantics ------------------------------------------------

struct EngineHarness {
  AlertEngine engine;
  SnapshotRing history{64};
  double t = 0;
  std::uint64_t seq = 0;

  explicit EngineHarness(const std::string& spec) {
    engine.configure(parse_alert_rules(spec));
  }

  /// Feeds one sample at the 60 s cadence; returns active rule names.
  std::vector<std::string> feed(double power_w) {
    TelemetrySnapshot s = snap_at(t, seq++);
    s.power_w = power_w;
    const auto active = engine.evaluate(s, history, nullptr);
    history.push(std::move(s));
    t += 60;
    return active;
  }
};

TEST(AlertEngine, FiresExactlyAtForDurationBoundary) {
  // for=300 at a 60 s cadence: breach starts at t=60; the rule must fire
  // on the sample at t=360 (held 300 s), not at t=300 (held only 240 s).
  EngineHarness h("power_w>100 for=300");
  EXPECT_TRUE(h.feed(50).empty());  // t=0, below
  for (double expect_t : {60.0, 120.0, 180.0, 240.0, 300.0}) {
    EXPECT_TRUE(h.feed(150).empty())
        << "fired early at t=" << expect_t;
  }
  EXPECT_EQ(h.feed(150).size(), 1u);  // t=360: held exactly 300 s
  ASSERT_EQ(h.engine.log().size(), 1u);
  EXPECT_DOUBLE_EQ(h.engine.log()[0].fired_t, 360);
}

TEST(AlertEngine, InterruptedBreachRestartsTheClock) {
  EngineHarness h("power_w>100 for=120");
  h.feed(150);  // t=0: breach begins
  h.feed(150);  // t=60
  h.feed(50);   // t=120: dips below — streak resets
  h.feed(150);  // t=180: new streak
  EXPECT_TRUE(h.feed(150).empty());   // t=240: held only 60 s
  EXPECT_EQ(h.feed(150).size(), 1u);  // t=300: held 120 s since t=180
  EXPECT_DOUBLE_EQ(h.engine.log()[0].fired_t, 300);
}

TEST(AlertEngine, HysteresisHoldsUntilResolveLevel) {
  EngineHarness h("power_w>100 resolve=80");
  EXPECT_EQ(h.feed(150).size(), 1u);  // for=0: fires immediately
  EXPECT_EQ(h.feed(90).size(), 1u);   // below bound, above resolve: holds
  EXPECT_TRUE(h.feed(70).empty());    // below resolve: clears
  ASSERT_EQ(h.engine.log().size(), 1u);
  EXPECT_DOUBLE_EQ(h.engine.log()[0].fired_t, 0);
  EXPECT_DOUBLE_EQ(h.engine.log()[0].resolved_t, 120);
}

TEST(AlertEngine, UnresolvedEpisodeKeepsMinusOne) {
  EngineHarness h("power_w>100");
  h.feed(150);
  ASSERT_EQ(h.engine.log().size(), 1u);
  EXPECT_DOUBLE_EQ(h.engine.log()[0].resolved_t, -1);
  EXPECT_EQ(h.engine.active_count(), 1u);
  EXPECT_NE(h.engine.log_to_string().find("(active)"), std::string::npos);
}

// ---- dashboard -------------------------------------------------------------

TEST(Dashboard, SparklineScalesAndHandlesFlatSeries) {
  EXPECT_EQ(sparkline({}), "");
  const std::string ramp = sparkline({0, 1, 2, 3}, 4);
  EXPECT_FALSE(ramp.empty());
  // Flat series must not divide by zero; renders a mid-level row.
  const std::string flat = sparkline({5, 5, 5}, 3);
  EXPECT_FALSE(flat.empty());
}

TEST(Dashboard, RendersHeadlineAndAlerts) {
  SnapshotRing ring(8);
  TelemetrySnapshot s = sample_snapshot();
  ring.push(s);
  std::ostringstream os;
  DashboardOptions options;
  options.ansi = false;
  render_dashboard(os, ring, options);
  const std::string out = os.str();
  EXPECT_NE(out.find("high-power"), std::string::npos);
  EXPECT_NE(out.find("DEGRADED"), std::string::npos);  // rung 2
  EXPECT_EQ(out.find("\x1b"), std::string::npos);      // ansi off
}

// ---- TelemetryPlane end-to-end ---------------------------------------------

/// Runs the shared small scenario with a telemetry plane attached and
/// returns the MemorySink's captured stream.
std::vector<TelemetrySnapshot> run_sampled(const std::string& alerts = "") {
  Observability obs;
  TelemetryConfig tc;
  tc.period_s = 600;
  obs.telemetry.enable(tc);
  auto* mem = static_cast<MemorySink*>(
      obs.telemetry.add_sink(std::make_unique<MemorySink>()));
  if (!alerts.empty()) {
    obs.telemetry.set_alert_rules(parse_alert_rules(alerts));
  }
  auto config = testing::small_config("SB");
  config.obs = &obs;
  experiments::run_experiment(testing::small_week(), std::move(config));
  return mem->snapshots();
}

std::string to_jsonl(const std::vector<TelemetrySnapshot>& snaps) {
  std::ostringstream os;
  for (const auto& s : snaps) {
    write_snapshot_jsonl(os, s);
    os << '\n';
  }
  return os.str();
}

TEST(TelemetryPlane, CaptureRollupsAreConsistent) {
  const auto snaps = run_sampled();
  ASSERT_GT(snaps.size(), 10u);
  const std::size_t fleet = 20;  // small_config: 4 fast + 10 medium + 6 slow
  std::uint64_t seq = 0;
  for (const auto& s : snaps) {
    EXPECT_EQ(s.seq, seq++);  // monotonic, gap-free
    EXPECT_EQ(s.hosts.size(), fleet);
    EXPECT_EQ(s.online, s.hosts_on + s.hosts_booting);
    EXPECT_EQ(s.hosts_on + s.hosts_booting + s.hosts_off + s.hosts_failed,
              static_cast<int>(fleet));
    EXPECT_LE(s.working, s.online);
    EXPECT_GE(s.power_w, 0);
    // Per-host power must add up to the fleet rollup.
    double host_sum = 0;
    for (const auto& h : s.hosts) host_sum += h.power_w;
    EXPECT_NEAR(host_sum, s.power_w, 1e-3);
  }
  // Energy is a cumulative integral: non-decreasing along the stream.
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].energy_kwh, snaps[i - 1].energy_kwh);
    EXPECT_GT(snaps[i].t, snaps[i - 1].t);
  }
}

TEST(TelemetryPlane, StreamIsByteIdenticalAcrossRuns) {
  const std::string first =
      to_jsonl(run_sampled("working_ratio<0.2 for=1200"));
  const std::string second =
      to_jsonl(run_sampled("working_ratio<0.2 for=1200"));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TelemetryPlane, AlertLogReachesRunReport) {
  Observability obs;
  TelemetryConfig tc;
  tc.period_s = 600;
  obs.telemetry.enable(tc);
  // hosts_online >= 1 holds from t=0 on: guaranteed to fire and never
  // resolve, so the engine's log must carry exactly one open episode, and
  // the run summary reads it from there.
  obs.telemetry.set_alert_rules(
      parse_alert_rules("hosts_online>0.5 name=fleet-up"));
  auto config = testing::small_config("SB");
  config.obs = &obs;
  const auto result =
      experiments::run_experiment(testing::small_week(), std::move(config));
  const AlertEngine& engine = obs.telemetry.alerts();
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_EQ(engine.log()[0].rule, "fleet-up");
  EXPECT_DOUBLE_EQ(engine.log()[0].resolved_t, -1);
  EXPECT_NE(engine.log_to_string().find("fleet-up"), std::string::npos);
  std::ostringstream summary;
  write_run_summary(summary, result.report, &obs);
  EXPECT_NE(summary.str().find(R"("episodes":1,"log":[{"rule":"fleet-up",)"),
            std::string::npos);
  // The fire transition also lands in the alerts.* metric family.
  const auto snap = obs.registry.snapshot();
  const auto* fired = snap.find("alerts.fired");
  ASSERT_NE(fired, nullptr);
  EXPECT_DOUBLE_EQ(fired->value, 1);
}

TEST(TelemetryPlane, FinishTakesClosingSampleAndSinksSeeEverySample) {
  // Ring smaller than the stream: file-style sinks must still see every
  // sample while the ring retains only the tail.
  Observability obs;
  TelemetryConfig tc;
  tc.period_s = 600;
  tc.ring_capacity = 4;
  obs.telemetry.enable(tc);
  auto* mem = static_cast<MemorySink*>(
      obs.telemetry.add_sink(std::make_unique<MemorySink>()));
  auto config = testing::small_config("SB");
  config.obs = &obs;
  const auto result =
      experiments::run_experiment(testing::small_week(), std::move(config));
  const auto& snaps = mem->snapshots();
  ASSERT_FALSE(snaps.empty());
  EXPECT_EQ(obs.telemetry.ring().size(), 4u);
  EXPECT_EQ(obs.telemetry.ring().total(), snaps.size());
  EXPECT_EQ(obs.telemetry.samples_taken(), snaps.size());
  // finish() closes the stream at the run's end time.
  EXPECT_DOUBLE_EQ(snaps.back().t, result.end_time_s);
}

}  // namespace
}  // namespace easched::obs
