// Failure-time mathematics for the reliability extension (section III-A.6).
//
// A host's reliability factor Frel in [0,1] is "the amount of time the node
// is up". Together with a mean repair time this pins down the mean time
// between failures:  Frel = MTBF / (MTBF + MTTR)  =>  MTBF = MTTR * Frel /
// (1 - Frel). Failures strike only while the node is powered on; time to
// failure is exponential with mean MTBF.
#pragma once

#include "support/rng.hpp"

namespace easched::datacenter {

class FailureModel {
 public:
  /// `mean_repair_s` is the MTTR used to convert reliability into MTBF.
  explicit FailureModel(double mean_repair_s) : mttr_s_(mean_repair_s) {}

  /// MTBF implied by a reliability factor. The factor is clamped into
  /// [0, 1]; values >= 1 yield +inf (never fails) and values <= 0 bottom
  /// out at a one-second floor instead of the degenerate MTBF = 0.
  [[nodiscard]] double mtbf_s(double reliability) const;

  /// Draws the next time-to-failure [s] for a node of the given
  /// reliability; +inf for a perfectly reliable node, always > 0.
  double draw_time_to_failure(support::Rng& rng, double reliability) const;

  /// Draws a repair duration (exponential around MTTR).
  double draw_repair_time(support::Rng& rng) const;

 private:
  double mttr_s_;
};

}  // namespace easched::datacenter
