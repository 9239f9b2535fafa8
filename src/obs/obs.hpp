// The observability bundle and its access path.
//
// An `Observability` owns the three instruments a run can carry — event
// tracer, metrics registry, phase profiler — and travels with the run's
// `metrics::Recorder` as a nullable pointer (`Recorder::obs`), so every
// layer that already receives the recorder (Datacenter, SchedulerDriver,
// ScoreBasedPolicy via the datacenter) can reach it without new plumbing.
//
// Instrumentation call sites never touch the bundle directly; they go
// through the accessors below. A run event goes through obs::record(),
// which bumps the kind's run counter (its kEventKinds row) and traces it:
//
//   if (auto* e = obs::record(recorder, now, EventKind::kPowerOn)) {
//     e->host = h;
//   }
//
// An instrument that is absent or not enabled is a null sink: the
// accessor is a pointer load plus a flag test, and the call site's branch
// is skipped.
#pragma once

#include "metrics/accumulators.hpp"
#include "obs/attribution/decision_log.hpp"
#include "obs/attribution/energy_ledger.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace.hpp"

namespace easched::obs {

/// Everything one run's observability needs, bundled so a single pointer
/// threads through the stack. Components start disabled (null sinks);
/// enable the ones a run asked for (see obs_cli.hpp for the CLI path).
struct Observability {
  Tracer tracer;
  MetricsRegistry registry;
  PhaseProfiler profiler;
  EnergyLedger ledger;
  DecisionLog decisions;
  TelemetryPlane telemetry;
};

/// The run's tracer, or nullptr when absent or not enabled.
[[nodiscard]] inline Tracer* tracer(const metrics::Recorder& rec) noexcept {
  Observability* o = rec.obs;
  return (o != nullptr && o->tracer.enabled()) ? &o->tracer : nullptr;
}

/// Records one `kind` event spanning [start, end]: bumps the kind's run
/// counter, if its kEventKinds row names one, and appends the event to the
/// run's tracer. Returns the event for the caller to fill in (valid until
/// the next emission), or nullptr when no tracer is enabled.
inline TraceEvent* record_span(metrics::Recorder& rec, sim::SimTime start,
                               sim::SimTime end, EventKind kind) {
  if (auto field = row(kind).counter) ++(rec.counts.*field);
  Tracer* tr = tracer(rec);
  return tr != nullptr ? &tr->span(start, end, kind) : nullptr;
}

/// record_span() for an instant event at `t` (a span of length zero).
inline TraceEvent* record(metrics::Recorder& rec, sim::SimTime t,
                          EventKind kind) {
  return record_span(rec, t, t, kind);
}

/// The run's phase profiler, or nullptr when absent or not enabled.
[[nodiscard]] inline PhaseProfiler* profiler(
    const metrics::Recorder& rec) noexcept {
  Observability* o = rec.obs;
  return (o != nullptr && o->profiler.enabled()) ? &o->profiler : nullptr;
}

/// The run's energy ledger, or nullptr when absent or not enabled.
[[nodiscard]] inline EnergyLedger* ledger(
    const metrics::Recorder& rec) noexcept {
  Observability* o = rec.obs;
  return (o != nullptr && o->ledger.enabled()) ? &o->ledger : nullptr;
}

/// The run's decision log, or nullptr when absent or not enabled.
[[nodiscard]] inline DecisionLog* decisions(
    const metrics::Recorder& rec) noexcept {
  Observability* o = rec.obs;
  return (o != nullptr && o->decisions.enabled()) ? &o->decisions : nullptr;
}

/// The run's telemetry plane, or nullptr when absent or not enabled.
[[nodiscard]] inline TelemetryPlane* telemetry(
    const metrics::Recorder& rec) noexcept {
  Observability* o = rec.obs;
  return (o != nullptr && o->telemetry.enabled()) ? &o->telemetry : nullptr;
}

/// Publishes every run counter into `registry` under its
/// metrics::kRunCounters name, plus the oversubscription gauge, the
/// resilience gauges, the recovery-time histogram and, when enabled, the
/// energy ledger and decision-log blocks. `--metrics-out=` snapshots,
/// RunReport::metrics and the obs tests all read the resulting snapshot.
void publish_run_metrics(const metrics::Recorder& rec,
                         MetricsRegistry& registry);

}  // namespace easched::obs
