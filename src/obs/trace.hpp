// Structured event tracing for a simulation run.
//
// The Tracer records simulator-time-stamped events — instants (a job
// arrival, a placement decision with its winning score breakdown) and spans
// (a migration from start to switchover, a host boot) — into an in-memory
// buffer that exports as JSON-lines for programmatic consumption
// (`trace_tool summarize`) or as Chrome `trace_event` JSON loadable in
// chrome://tracing and Perfetto.
//
// Determinism contract: every event is emitted from the simulation thread,
// stamped with the simulation clock and a stable sequence id assigned in
// emission order. Exports sort stably by sim-time, so identical runs
// produce byte-identical traces. The only wall-clock data allowed in a
// trace are numeric args carrying the `wall_` prefix (round profiling),
// which `write_jsonl(os, false)` strips; tests/test_obs.cpp compares
// repeated runs through that masked form.
//
// The tracer is a null sink until enable() is called: the instrumentation
// call sites (see obs.hpp) check enabled() through a single pointer load,
// so a run without --trace= pays one predicted branch per would-be event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "metrics/accumulators.hpp"
#include "sim/time.hpp"

namespace easched::obs {

/// The event taxonomy. Each kind has one kEventKinds row below; append a
/// kind (before kCount) together with its row, don't renumber.
enum class EventKind : std::uint8_t {
  kRunBegin,         ///< label = policy name; args: hosts, jobs
  kJobArrival,       ///< vm; args: cpu_pct, mem_mb
  kRound,            ///< one scheduling round; args: queue (after the
                     ///< round), eligible (queued VMs the policy saw),
                     ///< actions applied (+ wall_* profiling fields)
  kDecision,         ///< solver decision for one VM; vm, host; args: the
                     ///< score breakdown req/res/virt/conc/pwr/sla/fault
                     ///< plus total (their left-to-right sum)
  kCreateStart,      ///< vm, host
  kVmReady,          ///< vm, host; span over the creation
  kJobFinished,      ///< vm, host; args: satisfaction, delay_pct
  kMigrateStart,     ///< vm, host = destination, host2 = source
  kMigrateDone,      ///< vm, host = destination, host2 = source; span
  kMigrateRollback,  ///< vm, host = abandoned destination, host2 = source
  kPowerOn,          ///< host
  kHostOnline,       ///< host; span over the boot
  kPowerOff,         ///< host
  kHostOff,          ///< host; span over the shutdown
  kHostFailed,       ///< host; args: lost (#VMs requeued)
  kHostRepaired,     ///< host
  kBootFailed,       ///< host
  kFaultInjected,    ///< host, vm (when VM-scoped); label = `<op>.<outcome>`
                     ///< (the fault-plan key grammar, e.g. migrate.fail);
                     ///< args: fail_fraction (fail), slow_factor (slow)
  kOpFailed,         ///< vm, host; label = op; args: timeout
  kQuarantine,       ///< host
  kUnquarantine,     ///< host
  kSlaAlarm,         ///< vm
  kRetry,            ///< vm; args: attempt, delay_s
  kInvariantViolation,  ///< label = "<rule>: message"; args: rule (index)
  kLadderShift,      ///< degradation-ladder move; label = "<from>-><to>";
                     ///< args: from, to, breach (1 = budget breach caused it)
  kJobShed,          ///< vm rejected by admission control; args: queue
  kJobDeferred,      ///< vm pushed back by admission; args: queue, defers
  kBreakerOpen,      ///< host circuit breaker tripped; args: failures
  kBreakerProbe,     ///< half-open probe op dispatched onto host
  kBreakerClose,     ///< breaker closed after a successful probe
  kHostDead,         ///< host written off after too many breaker re-opens
  kAlertFire,        ///< telemetry alert rule started firing; label = rule
                     ///< name; args: value, bound
  kAlertResolve,     ///< alert rule resolved; label = rule name; args:
                     ///< value, fired_t
  kCount,            ///< not a kind: the number of kinds
};

/// One row of the event catalogue.
struct EventKindRow {
  EventKind kind;
  /// Stable identifier used by the JSONL format and `trace_tool summarize`.
  const char* name;
  /// Chrome trace category: where in the stack the event lives.
  const char* category;
  /// The run counter each event of this kind bumps (obs::record in
  /// obs.hpp), or nullptr when the kind counts nothing.
  std::uint64_t metrics::Counters::*counter;
};

/// Every event kind, declared once, in EventKind order.
inline constexpr EventKindRow kEventKinds[] = {
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
static_assert(std::size(kEventKinds) ==
                  static_cast<std::size_t>(EventKind::kCount),
              "every EventKind needs exactly one kEventKinds row");
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kEventKinds); ++i) {
        if (static_cast<std::size_t>(kEventKinds[i].kind) != i) return false;
      }
      return true;
    }(),
    "kEventKinds rows must be in EventKind order");

[[nodiscard]] constexpr const EventKindRow& row(EventKind kind) noexcept {
  return kEventKinds[static_cast<std::size_t>(kind)];
}
[[nodiscard]] constexpr const char* to_string(EventKind kind) noexcept {
  return row(kind).name;
}

struct TraceEvent {
  sim::SimTime t = 0;    ///< sim-time stamp (span start when dur > 0)
  sim::SimTime dur = 0;  ///< sim-time span length; 0 = instant event
  std::uint64_t seq = 0; ///< stable emission order (assigned by the tracer)
  EventKind kind = EventKind::kRunBegin;
  std::int64_t vm = -1;    ///< -1 = not VM-scoped
  std::int64_t host = -1;  ///< -1 = not host-scoped
  std::int64_t host2 = -1; ///< secondary host (migration source)
  std::string label;       ///< free-form tag (policy name on kRunBegin)
  /// Small named numeric payload. Keys with the `wall_` prefix carry
  /// wall-clock profiling data and are excluded from determinism checks.
  std::vector<std::pair<std::string, double>> args;

  TraceEvent& arg(std::string key, double value) {
    args.emplace_back(std::move(key), value);
    return *this;
  }
};

class Tracer {
 public:
  void enable() noexcept { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Appends an event and assigns its sequence id. The returned reference
  /// is valid until the next emit(); fill the scoping fields on it.
  TraceEvent& emit(sim::SimTime t, EventKind kind);
  /// Emits a span: stamped at `start`, lasting until `end` in sim time.
  TraceEvent& span(sim::SimTime start, sim::SimTime end, EventKind kind);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); next_seq_ = 0; }

  /// One JSON object per line, sorted stably by sim-time. When
  /// `include_wall` is false, args with the `wall_` prefix are dropped —
  /// the byte-deterministic form the thread-count determinism test diffs.
  void write_jsonl(std::ostream& os, bool include_wall = true) const;

  /// Chrome trace_event JSON ("JSON Object Format"): spans become "X"
  /// complete events, instants "i" events; `ts`/`dur` are microseconds of
  /// simulation time; `tid` is the host id (hosts render as Perfetto
  /// tracks) and the scheduler itself is tid 0.
  void write_chrome(std::ostream& os) const;

 private:
  /// Event indices sorted stably by sim-time (spans are stamped at their
  /// start, which can precede already-emitted instants).
  [[nodiscard]] std::vector<std::size_t> sorted_order() const;

  bool enabled_ = false;
  std::uint64_t next_seq_ = 0;
  std::vector<TraceEvent> events_;
};

/// Structural validation of a Chrome trace_event JSON document: reads the
/// whole text with obs::read_json (obs/json.hpp) and checks the
/// trace_event shape (a top-level object with a `traceEvents` array whose
/// entries carry `name`, `ph`, `ts`, `pid`, `tid`, a known phase letter,
/// and `dur` on complete events). Each entry is checked as it closes, so
/// memory stays one event deep on long-run traces.
/// Returns true when valid; otherwise fills `error` (if non-null) with the
/// first problem found. Used by `trace_tool validate` and the obs tests.
bool validate_chrome_trace(const std::string& json, std::string* error);

}  // namespace easched::obs
