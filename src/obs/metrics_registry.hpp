// Named-instrument metrics registry: counters, gauges and fixed-bucket
// histograms, snapshotted into one CSV/JSON document per run.
//
// Each instrument is named once (optionally with a `{key=value}` label
// suffix). The run counters arrive through obs::publish_run_metrics, which
// takes their names from `metrics::kRunCounters`; the `--metrics-out=` CLI
// snapshot, RunReport::metrics and tests read the same snapshot rows.
//
// Instruments are plain in-memory values mutated from the simulation
// thread; no locks, no atomics. Snapshot rows are sorted by name so the
// CSV/JSON output is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace easched::obs {

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(InstrumentKind kind) noexcept;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges in ascending
/// order; an observation lands in the first bucket with value <= bound, or
/// in the implicit overflow bucket past the last bound. Tracks sum and
/// count exactly, so mean is always recoverable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// One instrument's state at snapshot time.
struct SnapshotRow {
  std::string name;  ///< full name including any {label} suffix
  InstrumentKind kind = InstrumentKind::kCounter;
  double value = 0;  ///< counter/gauge value; histogram mean (0 when empty)
  // Histogram detail (empty for counters/gauges):
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;
};

struct MetricsSnapshot {
  std::vector<SnapshotRow> rows;  ///< sorted by name

  /// Snapshot stamp: `sample_seq` counts snapshot() calls on the owning
  /// registry (monotonic per registry, never reset) and `sim_time_s` is
  /// the simulation clock last handed to set_sim_time() — together they
  /// make repeated exports from one process distinguishable.
  std::uint64_t sample_seq = 0;
  double sim_time_s = 0;

  [[nodiscard]] const SnapshotRow* find(const std::string& name) const;
  /// `# sample_seq=<n> sim_time_s=<t>` stamp line, the header, then
  /// `name,kind,value,count,sum,buckets` rows — histogram buckets
  /// flattened as `le=<bound>:<count>` pairs separated by '|'.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// Instrument lookup-or-create. `label` (optional) is appended to the
  /// name as `name{label}` — e.g. counter("ops_failed", "op=create").
  /// Re-fetching an existing name returns the same instrument; fetching an
  /// existing name as a different kind aborts (a programming error).
  Counter& counter(const std::string& name, const std::string& label = "");
  Gauge& gauge(const std::string& name, const std::string& label = "");
  /// For histograms, `bounds` applies on first creation only.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& label = "");

  [[nodiscard]] std::size_t size() const noexcept {
    return instruments_.size();
  }
  /// Captures all instruments, stamped with the next sample_seq and the
  /// last set_sim_time() value.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Sets the simulation-time stamp carried by subsequent snapshots (the
  /// experiment runner calls this at measurement end).
  void set_sim_time(double t) noexcept { sim_time_s_ = t; }

 private:
  struct Instrument {
    InstrumentKind kind = InstrumentKind::kCounter;
    Counter counter;
    Gauge gauge;
    std::vector<Histogram> histogram;  ///< 0 or 1 entries (lazy)
  };
  Instrument& fetch(const std::string& name, const std::string& label,
                    InstrumentKind kind);

  std::map<std::string, Instrument> instruments_;
  double sim_time_s_ = 0;
  /// Snapshots taken so far; mutable because snapshot() is logically a
  /// read yet must hand out distinct sequence numbers.
  mutable std::uint64_t next_sample_seq_ = 0;
};

}  // namespace easched::obs
