// The paper's contribution: the score-based scheduling policy (SB).
//
// Every round it snapshots the system into a ScoreModel, optimizes the
// (M+1) x N matrix with hill climbing (Algorithm 1) and turns the resulting
// plan into actions: queued VMs whose plan landed on a real host are
// created there; running VMs whose plan moved are migrated (only when the
// migration capability is enabled). The configurations of the evaluation:
//   SB0 = Preq + Pres + Ppwr                  (Table II)
//   SB1 = SB0 + Pvirt                         (Table III)
//   SB2 = SB1 + Pconc                         (Table III)
//   SB  = SB2 + migration                     (Tables IV, V)
//   SB-full = SB + PSLA + Pfault              (extensions, A2/A3 benches)
#pragma once

#include <memory>
#include <optional>

#include "core/annealing.hpp"
#include "core/fleet.hpp"
#include "core/hill_climb.hpp"
#include "core/score.hpp"
#include "core/score_matrix.hpp"
#include "core/solver_pool.hpp"
#include "sched/policy.hpp"

namespace easched::core {

/// Matrix solver used each round. Hill climbing is the paper's Algorithm 1;
/// annealing is the section-II meta-heuristic alternative (slower, can
/// escape local optima; see bench_ablation_solver / bench_ablation_anneal).
enum class MatrixSolver : std::uint8_t { kHillClimb, kAnnealing };

struct ScoreBasedConfig {
  ScoreParams params;
  bool migration = false;
  MatrixSolver solver = MatrixSolver::kHillClimb;
  AnnealingParams annealing;  ///< used when solver == kAnnealing
  /// Migration moves are only considered in periodic consolidation rounds
  /// (the paper: the policy "periodically calculates whether to move jobs
  /// in order to improve global system utility"); placements of queued VMs
  /// happen in every round.
  sim::SimTime migration_period_s = 1800;
  int max_moves = 256;            ///< Algorithm 1 iteration limit
  int max_migrations_per_round = 8;  ///< migration budget per sweep
  /// Minimum matrix improvement a migration must bring; keeps marginal
  /// reshuffles (whose cost the matrix only approximates) from happening.
  double min_migration_gain = 35;
  /// Worker threads for the matrix build and the hill-climbing sweep.
  /// 0 = take EASCHED_SOLVER_THREADS from the environment (default 1,
  /// i.e. serial). Threaded plans are bit-identical to serial ones
  /// (tests/test_solver_equivalence.cpp).
  int solver_threads = 0;
  /// Cross-round incremental scheduling core (core/fleet.hpp): keep a
  /// persistent fleet snapshot between rounds, re-read only the hosts the
  /// Datacenter's dirty journal names, and let the hill climber prune
  /// provably infeasible candidates through the capacity-bucket index.
  /// Every score model the policy builds — rounds under either solver and
  /// power-off ranking — uses it. Disable to run the reference core: each
  /// model reads every host afresh, prunes nothing and persists no score
  /// columns. Decisions are bit-identical either way (the fleet
  /// differential and end-to-end tests hold this).
  bool incremental = true;
  std::string label = "SB";

  static ScoreBasedConfig sb0();
  static ScoreBasedConfig sb1();
  static ScoreBasedConfig sb2();
  static ScoreBasedConfig sb();       ///< full evaluated policy
  static ScoreBasedConfig sb_full();  ///< + PSLA + Pfault extensions
};

class ScoreBasedPolicy final : public sched::Policy {
 public:
  explicit ScoreBasedPolicy(ScoreBasedConfig config)
      : config_(std::move(config)) {}

  [[nodiscard]] std::string name() const override { return config_.label; }
  [[nodiscard]] bool uses_migration() const override {
    return config_.migration;
  }

  std::vector<sched::Action> schedule(const sched::SchedContext& ctx) override;

  /// Section III-C: idle nodes are switched off by their aggregated matrix
  /// row score (higher aggregate — more infinities, higher penalties —
  /// goes first).
  datacenter::HostId choose_power_off(
      const sched::SchedContext& ctx,
      const std::vector<datacenter::HostId>& idle_hosts) override;

  [[nodiscard]] const ScoreBasedConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const HillClimbStats& last_stats() const noexcept {
    return last_stats_;
  }

 private:
  /// Resolves config_.solver_threads (consulting the environment once) and
  /// returns the shared pool, or nullptr when running serially.
  SolverPool* pool();

  /// Builds a score model of `ctx` into `model`: over fleet_, refreshed
  /// here, in incremental mode; over a private full read otherwise.
  void emplace_model(const sched::SchedContext& ctx, bool migration,
                     std::optional<ScoreModel>& model);

  /// LadderLevel::kFirstFit round: greedy first-fit placements of queued
  /// VMs (ascending host id), no score model, no migrations. O(queue x
  /// hosts) with no allocation beyond the action vector — the cheap rung
  /// the watchdog can always afford.
  std::vector<sched::Action> first_fit(const sched::SchedContext& ctx) const;

  ScoreBasedConfig config_;
  HillClimbStats last_stats_;
  FleetState fleet_;  ///< cross-round state of the incremental core
  sim::SimTime last_consolidation_ = -1e18;  ///< time of last migration round
  std::unique_ptr<SolverPool> pool_;  ///< lazily created, reused each round
  bool pool_resolved_ = false;
};

}  // namespace easched::core
