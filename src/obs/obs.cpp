#include "obs/obs.hpp"

#include "resilience/resilience.hpp"

namespace easched::obs {

void publish_run_metrics(const metrics::Recorder& rec,
                         MetricsRegistry& registry) {
  for (const auto& [field, name] : metrics::kRunCounters) {
    registry.counter(name).set(rec.counts.*field);
  }
  registry.gauge("run.max_oversubscription").set(rec.max_oversubscription);
  if (const auto* rc = resilience::controller(rec)) {
    registry.gauge("resilience.ladder_level")
        .set(static_cast<double>(static_cast<int>(rc->ladder())));
    registry.gauge("resilience.max_ladder_level")
        .set(static_cast<double>(static_cast<int>(rc->max_level_reached())));
    registry.gauge("resilience.breaker_open")
        .set(static_cast<double>(rc->breakers_not_healthy()));
  }

  // Recovery times span VM re-creation (~minutes) through repair-gated
  // waits (~hours); bucket edges follow that spread.
  Histogram& recovery = registry.histogram(
      "robust.recovery_s", {1, 5, 15, 60, 300, 1800, 7200});
  for (double s : rec.recovery_s) recovery.observe(s);

  if (rec.obs != nullptr && rec.obs->ledger.enabled()) {
    const EnergyLedger& ledger = rec.obs->ledger;
    registry.gauge("energy.total_j").set(ledger.total_j());
    registry.gauge("energy.state.off_j").set(ledger.off_j());
    registry.gauge("energy.state.boot_j").set(ledger.boot_j());
    registry.gauge("energy.state.idle_j").set(ledger.idle_j());
    registry.gauge("energy.state.load_j").set(ledger.load_j());
    registry.gauge("energy.mgmt_j").set(ledger.mgmt_j());
    const auto& hosts = ledger.hosts();
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const std::string label = "host=" + std::to_string(h);
      registry.gauge("energy.host.total_j", label).set(hosts[h].total_j());
      registry.gauge("energy.host.load_j", label).set(hosts[h].load_j);
    }
    for (const auto& [cls, joules] : ledger.vm_class_j()) {
      registry.gauge("energy.vm_class.j", "class=" + cls).set(joules);
    }
    const auto& rungs = ledger.rung_j();
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      const std::string label =
          std::string("rung=") + resilience::rung_name(r);
      registry.gauge("energy.rung.j", label).set(rungs[r]);
    }
  }
  if (rec.obs != nullptr && rec.obs->decisions.enabled()) {
    const DecisionLog::Summary s = rec.obs->decisions.summarize();
    registry.counter("decisions.count", "kind=place").set(s.places);
    registry.counter("decisions.count", "kind=migrate").set(s.migrations);
    registry.counter("decisions.count", "kind=first-fit").set(s.first_fit);
    registry.counter("decisions.with_runner_up").set(s.with_runner_up);
    registry.gauge("decisions.delta_total").set(s.delta_total);
    registry.gauge("decisions.mean_delta").set(s.mean_delta());
    for (std::size_t i = 0; i < kDecisionTermCount; ++i) {
      const std::string label =
          std::string("term=") + decision_term_name(i);
      registry.gauge("decisions.term_total", label).set(s.term_totals[i]);
      registry.counter("decisions.dominant", label)
          .set(s.dominant_counts[i]);
    }
  }
}

}  // namespace easched::obs
