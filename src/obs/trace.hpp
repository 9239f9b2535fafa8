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

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace easched::obs {

/// The event taxonomy. Names (to_string) are stable identifiers used by the
/// JSONL format and `trace_tool summarize`; append, don't renumber.
enum class EventKind : std::uint8_t {
  kRunBegin,         ///< label = policy name; args: hosts, jobs
  kJobArrival,       ///< vm; args: cpu_pct, mem_mb
  kRound,            ///< one scheduling round; args: queue, eligible,
                     ///< actions (+ wall_* profiling fields)
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
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

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
