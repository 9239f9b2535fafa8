// The host's momentary speed, measured with a fixed reference computation.
//
// The machines this benchmark runs on are shared: other tenants contend for
// the caches and memory, and a run can take 1.7 times as long in one minute
// as in the next. A Pace slice is a fixed piece of benchmark-owned work of
// the same kind as the scheduler's (a hash map, an ordered map and a
// priority queue built from empty, and sorting), and it slows down with the
// program: by 1.6x when a paper_sweep run slowed by 1.7x. Slices taken
// during a run and divided out of its time leave a figure that moves with
// the program and much less with its neighbours. The reference work uses
// only the standard library, so no change to the program under test
// alters it.
#pragma once

#include <chrono>
#include <vector>

namespace perfbench {

class Pace {
 public:
  /// Wall time between two slices taken by take_if_due().
  static constexpr std::chrono::milliseconds kInterval{500};
  /// A slice's time when the host runs at its quiet speed: on the 4-vCPU
  /// Xeon VM the benchmark was written on, what a slice takes in the
  /// host's quiet periods. Pace-normalised times are seconds at that speed.
  static constexpr double kQuietSliceMs = 25.0;

  /// Takes two slices to warm up the allocator and the caches; they are
  /// not recorded.
  Pace();

  /// Runs one slice and records its wall milliseconds.
  void slice();

  /// Runs a slice when kInterval has passed since the last one.
  void take_if_due();

  /// Wall milliseconds of every recorded slice, in order.
  [[nodiscard]] const std::vector<double>& slices_ms() const {
    return slices_ms_;
  }

 private:
  std::chrono::steady_clock::time_point last_;
  std::vector<double> slices_ms_;
  double sink_ = 0;
};

/// `seconds` measured when the fastest slice took `slice_ms`, in seconds
/// at the quiet speed.
inline double at_quiet_pace(double seconds, double slice_ms) {
  return seconds * Pace::kQuietSliceMs / slice_ms;
}

}  // namespace perfbench
