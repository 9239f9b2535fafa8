// Wall-clock phase profiling for the scheduler round.
//
// A PhaseProfiler collects per-phase duration samples via RAII Scope
// guards placed around the round's stages (score-matrix rebuild,
// hill-climb, actuation, power management). Samples
// are wall-clock and therefore non-deterministic by nature: they never
// feed back into simulation state, only into the profiling rollup and the
// `wall_`-prefixed trace args that determinism checks mask out.
//
// Disabled (the default), a Scope is a null guard — one branch on
// construction, nothing on destruction — so instrumented code paths cost
// nothing measurable when profiling is off.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace easched::obs {

/// Scheduler round stages, in execution order.
enum class Phase : std::uint8_t {
  /// No longer timed: the score model evaluates cells on read and keeps
  /// no cache to invalidate. Kept only because frozen perfbench still
  /// reads it (its core.invalidate_s is now always 0), like
  /// ScoreBasedConfig::solver_threads.
  kInvalidate,
  kRebuild,     ///< fleet refresh and score-model build
  kClimb,       ///< hill-climb / annealing iterations
  kActuate,     ///< applying the plan to the datacenter
  kPower,       ///< lambda-threshold power management update
  kRound,       ///< the whole scheduling round, end to end
};
inline constexpr std::size_t kPhaseCount = 6;

[[nodiscard]] const char* to_string(Phase phase) noexcept;

/// One phase's latency rollup, in milliseconds.
struct PhaseRollup {
  Phase phase = Phase::kRound;
  std::size_t n = 0;
  double total_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

class PhaseProfiler {
 public:
  void enable() noexcept { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void record(Phase phase, double ms) {
    samples_[static_cast<std::size_t>(phase)].push_back(ms);
  }
  [[nodiscard]] const std::vector<double>& samples(Phase phase) const {
    return samples_[static_cast<std::size_t>(phase)];
  }

  /// Rollups for phases with at least one sample, in Phase order.
  [[nodiscard]] std::vector<PhaseRollup> rollups() const;
  /// Human-readable rollup table (empty string when nothing was sampled).
  [[nodiscard]] std::string to_string() const;
  void clear();

  /// RAII timing guard: records elapsed wall-clock milliseconds into
  /// `profiler` on destruction. A null profiler makes it a no-op.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, Phase phase) noexcept
        : profiler_(profiler), phase_(phase) {
      if (profiler_ != nullptr) {
        start_ = std::chrono::steady_clock::now();
      }
    }
    ~Scope() {
      if (profiler_ != nullptr) {
        profiler_->record(phase_, elapsed_ms());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Milliseconds since construction (0 when the guard is a no-op).
    [[nodiscard]] double elapsed_ms() const noexcept {
      if (profiler_ == nullptr) return 0.0;
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start_)
          .count();
    }

   private:
    PhaseProfiler* profiler_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_{};
  };

 private:
  bool enabled_ = false;
  std::array<std::vector<double>, kPhaseCount> samples_{};
};

}  // namespace easched::obs
