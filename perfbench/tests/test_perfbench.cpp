// Unit tests of the benchmark's own code: the tail-percentile rule, the
// metric-name character set, decision-digest stability, and Pace slices
// leaving decisions and segment timings alone.
#include <gtest/gtest.h>

#include <thread>

#include "pace.hpp"
#include "scenarios.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(99999), 99.9);
  EXPECT_EQ(tail_percentile(10000), 99.9);  // exactly ten beyond p99.9
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_FALSE(tail_percentile(0).has_value());
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99.9), 999);
  EXPECT_EQ(percentile(v, 99), 990);
  EXPECT_EQ(percentile(v, 50), 500);
  EXPECT_EQ(percentile(v, 100), 1000);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(MetricNames, CharacterSet) {
  EXPECT_TRUE(valid_metric_name("run_s"));
  EXPECT_TRUE(valid_metric_name("core.power_off_rank_p99_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/inside"));
  EXPECT_FALSE(valid_metric_name("pct%"));
  EXPECT_FALSE(valid_metric_name("quote\""));

  EXPECT_TRUE(valid_unit("ms"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("seventeen-chars-x"));
  EXPECT_FALSE(valid_unit("k Wh"));
}

TEST(Digest, SensitiveToOrderAndBits) {
  Digest a, b, c;
  a.u64(1);
  a.u64(2);
  b.u64(2);
  b.u64(1);
  EXPECT_NE(a.value(), b.value());
  c.f64(0.0);
  Digest d;
  d.f64(-0.0);
  EXPECT_NE(c.value(), d.value());
}

TEST(Digest, StableAcrossSweepThreadCounts) {
  const Scenario s = make_tiny_sweep(3);
  Variant serial;
  Variant parallel;
  parallel.sweep_threads = 3;
  const Outcome one = run_scenario(s, serial);
  const Outcome again = run_scenario(s, serial);
  const Outcome three = run_scenario(s, parallel);
  EXPECT_EQ(one.digest, again.digest);
  EXPECT_EQ(one.digest, three.digest);
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    EXPECT_EQ(task_digest(one.logs[i], one.results[i]),
              task_digest(three.logs[i], three.results[i]))
        << "task " << i << " (" << s.tasks[i].policy << ")";
    EXPECT_FALSE(one.logs[i].decide_ms.empty());
  }
}

TEST(Digest, TracingAndSolverVariantsKeepDecisions) {
  const Scenario s = make_tiny_sweep(5);
  const Outcome plain = run_scenario(s, Variant{});
  Variant traced;
  traced.profile = true;
  Variant reference;
  reference.incremental = false;
  Variant pool;
  pool.solver_threads = 2;
  EXPECT_EQ(plain.digest, run_scenario(s, traced).digest);
  EXPECT_EQ(plain.digest, run_scenario(s, reference).digest);
  EXPECT_EQ(plain.digest, run_scenario(s, pool).digest);
}

TEST(Pace, SlicesKeepDecisionsAndStayOutOfSegments) {
  const Scenario s = make_tiny_sweep(3);
  Pace pace;
  Variant paced;
  paced.pace = &pace;
  const Outcome plain = run_scenario(s, Variant{});
  // The run is shorter than the interval: wait, so a slice falls due.
  std::this_thread::sleep_for(Pace::kInterval);
  const Outcome with_slices = run_scenario(s, paced);
  EXPECT_EQ(plain.digest, with_slices.digest);
  double lifetime_s = 0, segments_s = 0;
  for (const CallLog& log : with_slices.logs) {
    // One segment per round, and one after the last.
    EXPECT_EQ(log.segment_s.size(), log.decide_ms.size() + 1);
    lifetime_s += log.lifetime_s;
    for (const double seg : log.segment_s) segments_s += seg;
  }
  double slices_s = 0;
  for (const double ms : pace.slices_ms()) slices_s += ms / 1000.0;
  ASSERT_FALSE(pace.slices_ms().empty());
  EXPECT_LE(segments_s + slices_s, lifetime_s);
}

TEST(Digest, DiffersBetweenSeeds) {
  EXPECT_NE(run_scenario(make_tiny_sweep(3), Variant{}).digest,
            run_scenario(make_tiny_sweep(4), Variant{}).digest);
}

}  // namespace
}  // namespace perfbench
