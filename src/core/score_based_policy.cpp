#include "core/score_based_policy.hpp"

#include <algorithm>
#include <optional>

#include "core/hill_climb.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "support/contracts.hpp"
#include "validate/validate.hpp"

namespace easched::core {

namespace {

/// Publishes one decision's attribution: the record goes to the decision
/// log, and the kDecision trace event is derived from it. Either sink may
/// be off. First-fit records carry no score terms, so their event has no
/// args; the runner-up args appear only when the record has a runner-up,
/// which only a decision-log-enabled run computes.
void emit_decision(const metrics::Recorder& recorder, obs::DecisionRecord rec) {
  if (obs::Tracer* tr = obs::tracer(recorder)) {
    auto& e = tr->emit(rec.t, obs::EventKind::kDecision);
    e.vm = rec.vm;
    e.host = rec.host;
    e.host2 = rec.from_host;
    e.label = obs::to_string(rec.kind);
    if (rec.kind != obs::DecisionRecord::Kind::kFirstFit) {
      for (std::size_t i = 0; i < obs::kDecisionTermCount; ++i) {
        e.arg(obs::decision_term_name(i), rec.terms[i]);
      }
      e.arg("total", rec.total);
      if (rec.runner_up >= 0) {
        e.arg("runner_up", static_cast<double>(rec.runner_up))
            .arg("delta", rec.delta);
      }
    }
  }
  if (obs::DecisionLog* dlog = obs::decisions(recorder)) {
    dlog->add(std::move(rec));
  }
}

}  // namespace

ScoreBasedConfig ScoreBasedConfig::sb0() {
  ScoreBasedConfig c;
  c.params.use_virt = false;
  c.params.use_conc = false;
  c.params.use_pwr = true;
  c.label = "SB0";
  return c;
}

ScoreBasedConfig ScoreBasedConfig::sb1() {
  ScoreBasedConfig c = sb0();
  c.params.use_virt = true;
  c.label = "SB1";
  return c;
}

ScoreBasedConfig ScoreBasedConfig::sb2() {
  ScoreBasedConfig c = sb1();
  c.params.use_conc = true;
  c.label = "SB2";
  return c;
}

ScoreBasedConfig ScoreBasedConfig::sb() {
  ScoreBasedConfig c = sb2();
  c.migration = true;
  c.label = "SB";
  return c;
}

ScoreBasedConfig ScoreBasedConfig::sb_full() {
  ScoreBasedConfig c = sb();
  c.params.use_sla = true;
  c.params.use_fault = true;
  c.label = "SB-full";
  return c;
}

SolverPool* ScoreBasedPolicy::pool() {
  if (!pool_resolved_) {
    const int threads = config_.solver_threads > 0 ? config_.solver_threads
                                                   : SolverPool::env_threads();
    if (threads > 1) pool_ = std::make_unique<SolverPool>(threads);
    pool_resolved_ = true;
  }
  return pool_.get();
}

std::vector<sched::Action> ScoreBasedPolicy::schedule(
    const sched::SchedContext& ctx) {
  const sim::SimTime now = ctx.dc.simulator().now();

  // Degradation ladder (resilience control plane). The two degraded rungs
  // skip the score model entirely; kCachedClimb keeps the cached model but
  // suspends consolidation and runs under the tightened step budget the
  // driver put in ctx.solver_budget.
  switch (ctx.ladder) {
    case resilience::LadderLevel::kFrozen:
      return {};  // freeze placements; the queue keeps building
    case resilience::LadderLevel::kFirstFit:
      return first_fit(ctx);
    case resilience::LadderLevel::kFull:
    case resilience::LadderLevel::kCachedClimb:
      break;
  }

  const bool consolidate =
      config_.migration && ctx.ladder == resilience::LadderLevel::kFull &&
      now - last_consolidation_ >= config_.migration_period_s;
  if (consolidate) last_consolidation_ = now;

  obs::PhaseProfiler* prof = obs::profiler(ctx.dc.recorder());
  std::optional<ScoreModel> model_storage;
  {
    obs::PhaseProfiler::Scope scope(prof, obs::Phase::kRebuild);
    emplace_model(ctx, consolidate, model_storage);
    if (config_.incremental) {
      if (auto* ck = validate::checker(ctx.dc.recorder())) {
        ck->check_fleet(fleet_, ctx.dc, now);
      }
    }
  }
  ScoreModel& model = *model_storage;
  model.set_profiler(prof);
  {
    obs::PhaseProfiler::Scope scope(prof, obs::Phase::kClimb);
    if (config_.solver == MatrixSolver::kAnnealing &&
        ctx.solver_budget == 0) {
      // Deterministic per round: derive the walk seed from the clock.
      AnnealingParams params = config_.annealing;
      params.seed ^= static_cast<std::uint64_t>(now * 1000.0);
      anneal(model, params);
      last_stats_ = {};
    } else {
      // With a watchdog budget the solver is always the hill climber: its
      // move count is the deterministic step unit the budget is written
      // in, and the cached-score rung depends on its incremental reuse.
      HillClimbLimits limits;
      limits.max_moves = config_.max_moves;
      if (ctx.solver_budget > 0) {
        limits.max_moves = std::min(limits.max_moves, ctx.solver_budget);
      }
      limits.max_migration_moves = config_.max_migrations_per_round;
      limits.min_migration_gain = config_.min_migration_gain;
      limits.pool = pool();
      last_stats_ = hill_climb(model, limits);
      if (auto* rc = resilience::controller(ctx.dc.recorder())) {
        rc->note_solver_effort(now, last_stats_.moves);
      }
    }
  }
  // The climb warmed whatever cells it touched; before committing the plan
  // to actions, hold the cache to the recompute contract (kScoreCache).
  if (auto* ck = validate::checker(ctx.dc.recorder())) {
    ck->check_score_model(model, now);
  }

  std::vector<sched::Action> actions;
  int migrations_emitted = 0;
  for (int c = 0; c < model.cols(); ++c) {
    const int planned = model.plan_row(c);
    const int original = model.original_row(c);
    if (planned == original) continue;
    if (planned == model.virtual_row()) continue;  // annealing may evict
    const datacenter::VmId v = model.vm_at(c);
    const datacenter::HostId h = model.host_at(planned);
    bool emitted = false;
    if (original == model.virtual_row()) {
      actions.push_back(sched::Action::place(v, h));
      emitted = true;
    } else if (migrations_emitted < config_.max_migrations_per_round) {
      // The hill climber enforces the migration budget internally; the
      // annealing plan is capped here.
      actions.push_back(sched::Action::migrate(v, h));
      ++migrations_emitted;
      emitted = true;
    }
    if (!emitted) continue;
    obs::DecisionLog* dlog = obs::decisions(ctx.dc.recorder());
    if (dlog == nullptr && obs::tracer(ctx.dc.recorder()) == nullptr) continue;
    // Winning-score attribution, evaluated under the final plan (the VM is
    // planned on `planned`, everyone else where the solver left them) —
    // the configuration the actuated decision commits to.
    const ScoreBreakdown b = model.breakdown(planned, c);
    obs::DecisionRecord rec;
    rec.t = now;
    rec.vm = v;
    rec.host = h;
    if (original == model.virtual_row()) {
      rec.kind = obs::DecisionRecord::Kind::kPlace;
    } else {
      rec.kind = obs::DecisionRecord::Kind::kMigrate;
      rec.from_host = model.host_at(original);
    }
    rec.terms = {b.req, b.res, b.virt, b.conc, b.pwr, b.sla, b.fault};
    rec.total = b.total;
    // Counterfactual: the cheapest real alternative host under the same
    // plan. Only computed when the decision log asked for it — a full
    // column scan per decision is not free — so default traces stay
    // byte-identical.
    if (dlog != nullptr) {
      int runner_up = -1;
      double runner_up_total = 0;
      for (int r = 0; r < model.virtual_row(); ++r) {
        if (r == planned) continue;
        const double s = model.cell(r, c);
        if (s >= kInfScore) continue;
        if (runner_up < 0 || s < runner_up_total) {
          runner_up = r;
          runner_up_total = s;
        }
      }
      if (runner_up >= 0) {
        rec.runner_up = model.host_at(runner_up);
        rec.runner_up_total = runner_up_total;
        rec.delta = runner_up_total - b.total;
      }
    }
    emit_decision(ctx.dc.recorder(), std::move(rec));
  }
  return actions;
}

std::vector<sched::Action> ScoreBasedPolicy::first_fit(
    const sched::SchedContext& ctx) const {
  const sim::SimTime now = ctx.dc.simulator().now();
  std::vector<sched::Action> actions;
  // Reservations planned by earlier iterations of this loop; fits() only
  // sees the live world, so stack them on top.
  std::vector<double> extra_cpu(ctx.dc.num_hosts(), 0.0);
  std::vector<double> extra_mem(ctx.dc.num_hosts(), 0.0);
  for (datacenter::VmId v : ctx.queue) {
    const auto& job = ctx.dc.vm(v).job;
    for (datacenter::HostId h = 0; h < ctx.dc.num_hosts(); ++h) {
      if (!ctx.dc.fits(h, v)) continue;
      const auto& spec = ctx.dc.host(h).spec;
      const double cpu = ctx.dc.reserved_cpu_pct(h) + extra_cpu[h] + job.cpu_pct;
      const double mem = ctx.dc.reserved_mem_mb(h) + extra_mem[h] + job.mem_mb;
      if (cpu > spec.cpu_capacity_pct || mem > spec.mem_mb) continue;
      actions.push_back(sched::Action::place(v, h));
      extra_cpu[h] += job.cpu_pct;
      extra_mem[h] += job.mem_mb;
      // No score model on this rung — the record carries the placement
      // itself with zero terms, so rung mix still shows up in rollups.
      obs::DecisionRecord rec;
      rec.t = now;
      rec.kind = obs::DecisionRecord::Kind::kFirstFit;
      rec.vm = v;
      rec.host = h;
      emit_decision(ctx.dc.recorder(), std::move(rec));
      break;
    }
  }
  // Each greedy placement counts as one solver step against the rung's
  // budget, so sustained overload can still breach its way down to frozen.
  if (auto* rc = resilience::controller(ctx.dc.recorder())) {
    rc->note_solver_effort(now, static_cast<int>(actions.size()));
  }
  return actions;
}

void ScoreBasedPolicy::emplace_model(const sched::SchedContext& ctx,
                                     bool migration,
                                     std::optional<ScoreModel>& model) {
  if (!config_.incremental) {
    model.emplace(ctx.dc, ctx.queue, config_.params, migration, pool());
    return;
  }
  fleet_.refresh(ctx.dc, ctx.queue);
  model.emplace(fleet_, ctx.dc, ctx.queue, config_.params, migration, pool());
}

datacenter::HostId ScoreBasedPolicy::choose_power_off(
    const sched::SchedContext& ctx,
    const std::vector<datacenter::HostId>& idle_hosts) {
  EA_EXPECTS(!idle_hosts.empty());
  // Rank by the aggregated matrix row of each idle candidate (row ==
  // HostId), on the same model the rounds use.
  std::optional<ScoreModel> model;
  emplace_model(ctx, config_.migration, model);
  // The power controller lists idle hosts in ascending HostId order, so
  // the strict > below gives ties to the lowest HostId.
  datacenter::HostId best = idle_hosts.front();
  double best_score = -1;
  for (const datacenter::HostId h : idle_hosts) {
    const int r = static_cast<int>(h);
    // A non-placeable host (quarantined, breaker-vetoed) has an all-kInf
    // row that would aggregate highest; it is not a candidate.
    if (!model->placeable(r)) continue;
    double agg = model->row_aggregate(r);
    if (model->cols() == 0) {
      // Empty matrix: fall back to overhead-based ranking so the choice
      // stays deterministic and sensible.
      agg = ctx.dc.host(h).spec.creation_cost_s +
            ctx.dc.host(h).spec.migration_cost_s;
    }
    if (agg > best_score) {
      best_score = agg;
      best = h;
    }
  }
  return best;
}

}  // namespace easched::core
