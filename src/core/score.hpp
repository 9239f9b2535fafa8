// Score constants and parameters of the score-based scheduler
// (section III-A of the paper).
#pragma once

namespace easched::core {

/// The paper's "infinity" score: combinations that are not viable. A large
/// finite sentinel instead of IEEE infinity so differences between two
/// infeasible cells are 0 (not NaN) and the hill-climbing deltas stay
/// well-defined. Any score >= kInfScore/2 is treated as infinite.
inline constexpr double kInfScore = 1e15;

[[nodiscard]] constexpr bool is_inf_score(double s) noexcept {
  return s >= kInfScore * 0.5;
}

/// Row-block granularity shared by the solver's blocked argmin
/// (hill_climb.hpp) and the fleet's per-block summaries
/// (FleetState::blocks(), fleet.hpp): the free-capacity maxima each block
/// summary carries are consulted block-for-block by the argmin, so both
/// sides must agree on the block size.
inline constexpr int kArgminBlock = 32;

/// "Soft infinity" for the PSLA penalty: unacceptable fulfilment makes a
/// host essentially forbidden, but — unlike hard infeasibility (Preq,
/// Pres) — a VM whose SLA is hopeless on *every* host must still run
/// somewhere rather than starve in the queue (whose score is the hard
/// kInfScore). Keeping the two infinities apart preserves the paper's
/// "queue has the maximum penalty" rule.
inline constexpr double kSoftInfScore = 1e9;

/// Weights and feature flags of the score. Flags off reproduce the paper's
/// ablations: SB0 = req+res+pwr; SB1 = SB0+virt; SB2 = SB1+conc; the full
/// policy adds migration (policy-level flag), SLA and reliability terms.
struct ScoreParams {
  bool use_virt = true;   ///< Pvirt: creation/migration overhead
  bool use_conc = true;   ///< Pconc: concurrent-operation overhead
  bool use_pwr = true;    ///< Ppwr: consolidation reward / empty penalty
  bool use_sla = false;   ///< PSLA: dynamic SLA enforcement
  bool use_fault = false; ///< Pfault: reliability

  // Ppwr (evaluation values, section V: THempty=1, Cempty=20, Cfill=40).
  int th_empty = 1;       ///< host "mostly empty" when #VM <= th_empty
  double c_empty = 20;    ///< cost of keeping an under-used host
  double c_fill = 40;     ///< reward slope for filling occupied hosts

  // PSLA.
  double c_sla = 100;     ///< cost of running while violating the SLA
  double th_sla = 0.5;    ///< fulfilment below this is unacceptable (inf)

  // Pfault.
  double c_fail = 200;    ///< cost of a potential failure
};

}  // namespace easched::core
