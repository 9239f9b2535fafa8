// Live telemetry plane: streaming time-series snapshots of a running
// simulation (or, one day, a real backend).
//
// The paper's whole argument is about time-varying signals — the
// working/online host ratio against λmin/λmax, per-host power draw, SLA
// satisfaction decay — yet traces and run summaries are post-hoc: you only
// learn a run went sideways after it ends. The TelemetryPlane is the live
// counterpart. A sim periodic (registered by the experiment runner) calls
// `sample()` at a fixed sim-time cadence; each call captures a
// fixed-schema TelemetrySnapshot — per-host state/utilisation/power/
// health, fleet rollups, queue depths, degradation rung, cumulative kWh —
// into a bounded ring buffer and hands it to every attached sink:
//
//   * JsonlSink   — one JSON object per line, streamed to a file
//                   (`--telemetry-out=`); survives ring eviction.
//   * PromSink    — Prometheus text exposition of the *latest* snapshot,
//                   rewritten atomically (tmp + rename) on every sample so
//                   an external scraper can poll the file (`--prom-out=`).
//   * MemorySink  — snapshots retained in memory, for tests.
//
// The AlertEngine (alerts.hpp) is evaluated between capture and sink
// emission, so every emitted snapshot carries the names of the alerts
// active at that instant and the live dashboard (dashboard.hpp) can render
// them without separate plumbing.
//
// Determinism contract: every sampled value derives from simulation state
// (sim clock, host/VM state, exact time-weighted integrals) — never from
// wall clock or thread scheduling — so the snapshot stream, the JSONL
// bytes and the alert firing log are byte-identical across repeats. The
// telemetry ctest gate asserts this.
//
// Like the Tracer, the plane is a null sink until enable() is called: the
// `obs::telemetry()` accessor (obs.hpp) returns nullptr and the runner
// registers no sampling periodic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry/alerts.hpp"
#include "sim/time.hpp"

namespace easched::datacenter {
class Datacenter;
}
namespace easched::sched {
class SchedulerDriver;
}
namespace easched::metrics {
struct Recorder;
}

namespace easched::obs {

/// One host's slice of a snapshot. Kept small on purpose: a week-long run
/// at the default 60 s cadence samples the 100-node fleet ~10k times.
struct HostSample {
  std::uint8_t state = 0;   ///< datacenter::HostState numeric value
  std::uint8_t health = 0;  ///< resilience::HostHealth (0 = Healthy)
  float util_pct = 0;       ///< allocated CPU as % of host capacity
  float power_w = 0;        ///< current electrical draw [W]
};

/// The fixed-schema telemetry record. Field order here is the JSONL field
/// order; append new fields at the end, never reorder (docs/telemetry.md
/// documents the schema for external consumers).
struct TelemetrySnapshot {
  std::uint64_t seq = 0;   ///< monotonic sample number (never reset)
  sim::SimTime t = 0;      ///< sim-time stamp [s]

  // Fleet rollups.
  int hosts_on = 0;        ///< powered on (excluding booting)
  int hosts_booting = 0;
  int hosts_off = 0;       ///< off and available (not failed)
  int hosts_failed = 0;
  int working = 0;         ///< hosts executing >= 1 VM or operation
  int online = 0;          ///< on + booting (the paper's denominator)
  double ratio = 0;        ///< working/online (0 when online == 0)
  double lambda_min = 0;   ///< power controller band, for dashboards
  double lambda_max = 0;
  double power_w = 0;      ///< fleet electrical draw [W]
  double energy_kwh = 0;   ///< cumulative energy since t=0 [kWh]

  // Scheduler state.
  std::size_t queue = 0;       ///< pending (unallocated) VMs
  std::size_t backoff = 0;     ///< VMs serving a post-failure backoff
  std::size_t running = 0;     ///< VMs currently Creating/Running/Migrating
  std::uint64_t deferred = 0;  ///< cumulative admission deferrals
  std::uint64_t shed = 0;      ///< cumulative admission sheds
  double sla = 0;              ///< mean satisfaction of finished jobs [%]

  // Resilience state.
  int rung = 0;                ///< degradation-ladder level (0 = full)
  std::size_t breakers_open = 0;  ///< breakers currently not Healthy

  /// Names of the alert rules active (firing) at this instant, in rule
  /// order. Filled after AlertEngine evaluation, before sink emission.
  std::vector<std::string> active_alerts;

  std::vector<HostSample> hosts;
};

/// Serialises one snapshot as a single JSON line (no trailing newline).
/// Doubles use the repo-wide %.9g convention; the field order is the
/// struct order above, so output is byte-deterministic.
void write_snapshot_jsonl(std::ostream& os, const TelemetrySnapshot& snap);

/// Parses a line produced by write_snapshot_jsonl back into a snapshot
/// (used by `watch_tool` to replay/follow a telemetry file). Returns false
/// on lines that do not carry the expected schema.
bool parse_snapshot_jsonl(const std::string& line, TelemetrySnapshot* out);

/// Prometheus text exposition of one snapshot (the `easched_*` metric
/// family; see docs/telemetry.md for an example scrape config).
void write_snapshot_prom(std::ostream& os, const TelemetrySnapshot& snap);

/// Bounded FIFO of the most recent snapshots. Push beyond capacity evicts
/// the oldest; `total()` keeps counting so tests can assert eviction.
class SnapshotRing {
 public:
  explicit SnapshotRing(std::size_t capacity);

  void push(TelemetrySnapshot snap);
  void clear();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }
  /// Snapshots ever pushed (>= size() once eviction starts).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// i = 0 is the oldest retained snapshot, size()-1 the newest.
  [[nodiscard]] const TelemetrySnapshot& at(std::size_t i) const;
  [[nodiscard]] const TelemetrySnapshot& latest() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest retained snapshot
  std::uint64_t total_ = 0;
  std::vector<TelemetrySnapshot> buf_;
};

/// A snapshot consumer. Sinks are invoked on the simulation thread in
/// attachment order; they must not mutate simulation state.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_sample(const TelemetrySnapshot& snap) = 0;
  /// End of run: flush/close outputs. Default: nothing.
  virtual void finish() {}
};

/// Streams every snapshot as one JSON line to a file.
class JsonlSink : public TelemetrySink {
 public:
  /// Opens `path` for writing; `ok()` reports failure (the sink then drops
  /// samples rather than aborting the run).
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;
  [[nodiscard]] bool ok() const noexcept;
  void on_sample(const TelemetrySnapshot& snap) override;
  void finish() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Rewrites a Prometheus text-exposition file with the latest snapshot on
/// every sample. The write goes to `<path>.tmp` followed by an atomic
/// rename, so an external scraper tailing the file never sees a torn
/// exposition.
class PromSink : public TelemetrySink {
 public:
  explicit PromSink(std::string path);
  void on_sample(const TelemetrySnapshot& snap) override;

 private:
  std::string path_;
};

/// Retains every snapshot in memory; for tests and in-process consumers.
class MemorySink : public TelemetrySink {
 public:
  void on_sample(const TelemetrySnapshot& snap) override {
    snaps_.push_back(snap);
  }
  [[nodiscard]] const std::vector<TelemetrySnapshot>& snapshots() const {
    return snaps_;
  }

 private:
  std::vector<TelemetrySnapshot> snaps_;
};

struct TelemetryConfig {
  /// Sampling cadence in sim seconds.
  double period_s = 60;
  /// Ring-buffer capacity (snapshots retained in memory; file sinks see
  /// every sample regardless).
  std::size_t ring_capacity = 4096;
};

/// The live telemetry plane of one run: configuration, ring buffer, sinks
/// and the alert engine, bundled into obs::Observability (obs.hpp). The
/// experiment runner registers the sampling periodic and calls `sample()`;
/// everything else hangs off that.
class TelemetryPlane {
 public:
  /// What `sample()` reads. All pointers are non-owning and must outlive
  /// the run; `driver` may be null (no scheduler attached — queue fields
  /// sample as zero).
  struct Sources {
    const datacenter::Datacenter* dc = nullptr;
    const sched::SchedulerDriver* driver = nullptr;
    const metrics::Recorder* recorder = nullptr;
    double lambda_min = 0;
    double lambda_max = 0;
  };

  TelemetryPlane();

  void enable(TelemetryConfig config = {});
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }

  /// Attaches a sink (the plane takes ownership). Returns the raw pointer
  /// for callers that need to read the sink back (MemorySink in tests).
  TelemetrySink* add_sink(std::unique_ptr<TelemetrySink> sink);

  /// Installs the alert rules (see alerts.hpp for the grammar).
  void set_alert_rules(std::vector<AlertRule> rules);
  [[nodiscard]] AlertEngine& alerts() noexcept { return alerts_; }
  [[nodiscard]] const AlertEngine& alerts() const noexcept { return alerts_; }

  /// Captures one snapshot: reads the sources, evaluates the alert rules,
  /// pushes into the ring and feeds every sink. `recorder` (from sources)
  /// also routes the alert trace events / metrics. Returns the sequence
  /// number assigned.
  std::uint64_t sample(sim::SimTime now, const Sources& sources);

  /// End of run: takes a final sample when the last one is older than
  /// `now`, closes the alert log (open firings keep resolved_t = -1) and
  /// flushes the sinks.
  void finish(sim::SimTime now, const Sources& sources);

  [[nodiscard]] const SnapshotRing& ring() const noexcept { return ring_; }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return next_seq_;
  }

  /// Builds a snapshot from the sources without ring/sink/alert side
  /// effects (the sampling primitive; exposed for tests).
  [[nodiscard]] TelemetrySnapshot capture(sim::SimTime now,
                                          const Sources& sources) const;

 private:
  bool enabled_ = false;
  TelemetryConfig config_;
  std::uint64_t next_seq_ = 0;
  SnapshotRing ring_;
  AlertEngine alerts_;
  std::vector<std::unique_ptr<TelemetrySink>> sinks_;
};

}  // namespace easched::obs
