#include "obs/attribution/run_summary.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "resilience/health.hpp"

namespace easched::obs {
namespace {

void write_key(std::ostream& os, const char* key, bool& first) {
  if (!first) os << ',';
  first = false;
  os << '"' << key << "\":";
}

void write_num(std::ostream& os, const char* key, double v, bool& first) {
  write_key(os, key, first);
  write_json_number(os, v);
}

void write_count(std::ostream& os, const char* key, std::uint64_t v,
                 bool& first) {
  write_key(os, key, first);
  os << v;
}

void write_energy(std::ostream& os, const EnergyLedger& ledger) {
  bool first = true;
  os << "\"energy\":{";
  write_num(os, "total_j", ledger.total_j(), first);
  write_num(os, "off_j", ledger.off_j(), first);
  write_num(os, "boot_j", ledger.boot_j(), first);
  write_num(os, "idle_j", ledger.idle_j(), first);
  write_num(os, "load_j", ledger.load_j(), first);
  write_num(os, "mgmt_j", ledger.mgmt_j(), first);

  write_key(os, "hosts", first);
  os << '[';
  const auto& hosts = ledger.hosts();
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (h > 0) os << ',';
    bool hf = true;
    os << '{';
    write_count(os, "host", h, hf);
    write_num(os, "off_j", hosts[h].off_j, hf);
    write_num(os, "boot_j", hosts[h].boot_j, hf);
    write_num(os, "idle_j", hosts[h].idle_j, hf);
    write_num(os, "load_j", hosts[h].load_j, hf);
    write_num(os, "total_j", hosts[h].total_j(), hf);
    os << '}';
  }
  os << ']';

  write_key(os, "vm_classes", first);
  os << '{';
  bool cf = true;
  for (const auto& [cls, joules] : ledger.vm_class_j()) {  // map: sorted
    if (!cf) os << ',';
    cf = false;
    write_json_string(os, cls);
    os << ':';
    write_json_number(os, joules);
  }
  os << '}';

  write_key(os, "rungs", first);
  os << '{';
  const auto& rungs = ledger.rung_j();
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    if (r > 0) os << ',';
    os << '"' << resilience::rung_name(r) << "\":";
    write_json_number(os, rungs[r]);
  }
  os << '}';

  os << '}';
}

void write_decisions(std::ostream& os, const DecisionLog& log) {
  const DecisionLog::Summary s = log.summarize();
  bool first = true;
  os << "\"decisions\":{";
  write_count(os, "count", s.count(), first);
  write_count(os, "places", s.places, first);
  write_count(os, "migrations", s.migrations, first);
  write_count(os, "first_fit", s.first_fit, first);
  write_count(os, "with_runner_up", s.with_runner_up, first);
  write_num(os, "delta_total", s.delta_total, first);
  write_num(os, "mean_delta", s.mean_delta(), first);

  write_key(os, "term_totals", first);
  os << '{';
  for (std::size_t i = 0; i < kDecisionTermCount; ++i) {
    if (i > 0) os << ',';
    os << '"' << decision_term_name(i) << "\":";
    write_json_number(os, s.term_totals[i]);
  }
  os << '}';

  write_key(os, "dominant", first);
  os << '{';
  for (std::size_t i = 0; i < kDecisionTermCount; ++i) {
    if (i > 0) os << ',';
    os << '"' << decision_term_name(i) << "\":" << s.dominant_counts[i];
  }
  os << '}';

  os << '}';
}

void write_metrics(std::ostream& os, const MetricsSnapshot& snap) {
  os << "\"metrics\":{";
  bool first = true;
  for (const SnapshotRow& row : snap.rows) {  // sorted by name
    if (!first) os << ',';
    first = false;
    write_json_string(os, row.name);
    os << ':';
    if (row.kind == InstrumentKind::kHistogram) {
      // Flatten histograms to the two diffable scalars.
      os << "{\"count\":" << row.count << ",\"sum\":";
      write_json_number(os, row.sum);
      os << '}';
    } else {
      write_json_number(os, row.value);
    }
  }
  os << '}';
}

}  // namespace

void write_run_summary(std::ostream& os, const metrics::RunReport& report,
                       const Observability* obs) {
  os << "{\"schema\":\"" << kRunSummarySchema << "\",";

  os << "\"policy\":{\"name\":";
  write_json_string(os, report.policy);
  os << ",\"lambda_min\":";
  write_json_number(os, report.lambda_min);
  os << ",\"lambda_max\":";
  write_json_number(os, report.lambda_max);
  os << "},";

  {
    bool first = true;
    os << "\"report\":{";
    write_num(os, "duration_s", report.duration_s, first);
    write_num(os, "avg_working", report.avg_working, first);
    write_num(os, "avg_online", report.avg_online, first);
    write_num(os, "cpu_hours", report.cpu_hours, first);
    write_num(os, "energy_kwh", report.energy_kwh, first);
    write_num(os, "satisfaction", report.satisfaction, first);
    write_num(os, "delay_pct", report.delay_pct, first);
    write_count(os, "migrations", report.migrations, first);
    write_count(os, "creations", report.creations, first);
    write_count(os, "turn_ons", report.turn_ons, first);
    write_count(os, "turn_offs", report.turn_offs, first);
    write_count(os, "failures", report.failures, first);
    write_count(os, "jobs_finished", report.jobs_finished, first);
    os << "},";
  }

  // Emitted only when the run carried an enabled alert engine, so
  // summaries from alert-free runs stay byte-identical to older baselines.
  if (obs != nullptr && obs->telemetry.alerts().enabled()) {
    const AlertEngine& alerts = obs->telemetry.alerts();
    bool first = true;
    os << "\"alerts\":{";
    write_count(os, "rules", alerts.rules().size(), first);
    write_count(os, "episodes", alerts.log().size(), first);
    write_key(os, "log", first);
    os << '[';
    for (std::size_t i = 0; i < alerts.log().size(); ++i) {
      const AlertFiring& f = alerts.log()[i];
      if (i > 0) os << ',';
      os << "{\"rule\":";
      write_json_string(os, f.rule);
      os << ",\"fired_t\":";
      write_json_number(os, f.fired_t);
      os << ",\"resolved_t\":";
      write_json_number(os, f.resolved_t);
      os << '}';
    }
    os << "]},";
  }

  if (obs != nullptr && obs->ledger.enabled()) {
    write_energy(os, obs->ledger);
    os << ',';
  }
  if (obs != nullptr && obs->decisions.enabled()) {
    write_decisions(os, obs->decisions);
    os << ',';
  }

  write_metrics(os, report.metrics);
  os << "}\n";
}

bool write_run_summary_file(const std::string& path,
                            const metrics::RunReport& report,
                            const Observability* obs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "run_summary: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  write_run_summary(out, report, obs);
  return true;
}

}  // namespace easched::obs
