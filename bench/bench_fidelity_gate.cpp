// Paper-fidelity regression gate: the headline metrics of the paper
// reproduction (Table I power model, Table II static policies, Table IV
// migration + the 15 % headline saving, Table V consolidation costs) are
// measured on every run and compared against golden envelopes recorded on
// a known-good main (tests/data/golden_envelopes.json).
//
// Unlike the per-table benches, which check *shape* ("SB beats DBF"), this
// gate pins *values*: a refactor that silently shifts SB@40-90 energy by
// 3 % fails here even though every shape check still passes.
//
//   bench_fidelity_gate                      compare against the golden file
//   bench_fidelity_gate --record             re-record the golden file
//   bench_fidelity_gate --envelopes=<path>   use a different golden file
//
// The golden file is an easched.baseline/1 document (see
// obs/attribution/summary_diff.hpp) and the comparison is the repo's one
// comparator, obs::diff_summaries. Tolerances live in the golden file
// itself (abs_tol / rel_tol per metric) so bands can be widened in review
// without rebuilding. Completeness is checked both ways: a metric added
// here must be recorded, and a recorded metric must still be measured.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/score_based_policy.hpp"
#include "datacenter/datacenter.hpp"
#include "obs/attribution/summary_diff.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"

#ifndef EASCHED_GOLDEN_ENVELOPES
#define EASCHED_GOLDEN_ENVELOPES "tests/data/golden_envelopes.json"
#endif

namespace {

using namespace easched;

/// Steady-state power of one 4-way host running the given VMs (the
/// Table I measurement, same stack as bench_table1_power_model).
double measure_watts(const std::vector<double>& vm_cpu_pct) {
  sim::Simulator simulator;
  metrics::Recorder recorder(1);
  datacenter::DatacenterConfig config;
  config.hosts = {datacenter::HostSpec::medium()};
  config.seed = 1;
  datacenter::Datacenter dc(simulator, config, recorder);
  for (double cpu : vm_cpu_pct) {
    workload::Job job;
    job.id = 0;
    job.submit = 0;
    job.dedicated_seconds = 100000;
    job.cpu_pct = cpu;
    job.mem_mb = 256;
    dc.place(dc.admit_job(job), 0);
  }
  simulator.run_until(1000);
  return recorder.watts.host_current(0);
}

/// Measures every gated metric on the current build. Week runs execute
/// concurrently under the sweep runner (deterministic per task).
/// Every gated metric carries exactly one of abs_tol / rel_tol.
std::vector<obs::BaselineMetric> measure() {
  std::vector<obs::BaselineMetric> m;

  struct Config1 {
    const char* key;
    std::vector<double> vm_cpu_pct;
  };
  const Config1 table1[] = {
      {"100", {100}},
      {"200", {200}},
      {"300", {300}},
      {"400", {400}},
      {"2x100", {100, 100}},
      {"100+200", {100, 200}},
      {"4x100", {100, 100, 100, 100}},
      {"idle", {0.01, 0.01, 0.01, 0.01}},
  };
  for (const auto& c : table1) {
    m.push_back({std::string("table1.") + c.key + ".watts",
                 measure_watts(c.vm_cpu_pct), "W", "", 0.5, -1});
  }

  const auto jobs = bench::week_workload();
  experiments::SweepRunner sweep;
  std::vector<experiments::SweepTask> tasks;
  tasks.push_back(bench::week_task(jobs, "RD"));
  tasks.push_back(bench::week_task(jobs, "RR"));
  tasks.push_back(bench::week_task(jobs, "BF"));
  tasks.push_back(bench::week_task(jobs, "SB0"));
  tasks.push_back(bench::week_task(jobs, "SB", 0.30, 0.90));
  tasks.push_back(bench::week_task(jobs, "SB", 0.40, 0.90));
  tasks.push_back({&jobs, [] {
                     auto config = bench::week_run_config("SB", 0.30, 0.90);
                     auto sb = core::ScoreBasedConfig::sb();
                     sb.params.c_empty = 0;
                     sb.params.c_fill = 40;
                     config.policy_instance =
                         std::make_unique<core::ScoreBasedPolicy>(sb);
                     return config;
                   }});
  const auto results = sweep.run(std::move(tasks));
  const auto& rd = results[0].report;
  const auto& rr = results[1].report;
  const auto& bf = results[2].report;
  const auto& sb0 = results[3].report;
  const auto& sb = results[4].report;
  const auto& sba = results[5].report;
  const auto& ce0 = results[6].report;

  // Energies are held to 2 %, satisfactions to one percentage point.
  const auto energy = [&m](const char* name, double kwh) {
    m.push_back({name, kwh, "kWh", "", -1, 0.02});
  };
  const auto satisfaction = [&m](const char* name, double pct) {
    m.push_back({name, pct, "%", "", 1.0, -1});
  };
  energy("table2.RD.energy_kwh", rd.energy_kwh);
  energy("table2.RR.energy_kwh", rr.energy_kwh);
  energy("table2.BF.energy_kwh", bf.energy_kwh);
  energy("table2.SB0.energy_kwh", sb0.energy_kwh);
  satisfaction("table2.BF.satisfaction_pct", bf.satisfaction);
  energy("table4.SB_30_90.energy_kwh", sb.energy_kwh);
  satisfaction("table4.SB_30_90.satisfaction_pct", sb.satisfaction);
  energy("table4.SB_40_90.energy_kwh", sba.energy_kwh);
  // The headline claim (paper: -15 % vs BF). A drift here means the
  // reproduction no longer supports the abstract's number.
  m.push_back({"table4.sb4090_vs_bf_saving_pct",
               100.0 * (1.0 - sba.energy_kwh / bf.energy_kwh), "%", "", 2.0,
               -1});
  m.push_back({"table5.ce0.migrations",
               static_cast<double>(ce0.migrations), "count", "", 5.0, -1});
  energy("table5.ce0.energy_kwh", ce0.energy_kwh);
  return m;
}

/// The measured metrics as a baseline document.
std::string baseline_text(const std::vector<obs::BaselineMetric>& m) {
  std::ostringstream os;
  obs::write_baseline(os, {{"generator", "bench_fidelity_gate --record"}}, m);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  support::CliArgs args(argc, argv);
  const bool record = args.get_bool("record", false);
  const std::string path = args.get("envelopes", EASCHED_GOLDEN_ENVELOPES);
  args.warn_unrecognized();

  bench::print_banner(
      "Paper-fidelity regression gate",
      "Table I/II/IV/V headline metrics must stay inside the golden "
      "envelopes recorded on a known-good main");

  const std::string measured = baseline_text(measure());
  if (record) {
    std::ofstream out(path);
    if (!(out << measured)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("recorded golden envelopes to %s\n", path.c_str());
    return 0;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr,
                 "cannot read golden envelopes %s — record them first with "
                 "bench_fidelity_gate --record\n",
                 path.c_str());
    return 1;
  }
  std::ostringstream golden_text;
  golden_text << in.rdbuf();
  obs::FlatSummary golden, fresh;
  std::string error;
  if (!obs::flatten_json(golden_text.str(), golden, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  obs::flatten_json(measured, fresh);
  // A metric missing on either side is a failure: a new one must be
  // recorded, a recorded one must still be measured.
  const obs::DiffResult result = obs::diff_summaries(golden, fresh, {});
  std::fputs(obs::format_diff(result, path, "this build").c_str(), stdout);
  std::printf("fidelity gate: %s (%s)\n", result.regressed() ? "FAIL" : "PASS",
              path.c_str());
  return result.regressed() ? 1 : 0;
}
