#include "core/score_based_policy.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

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
void emit_decision(metrics::Recorder& recorder, obs::DecisionRecord rec) {
  if (auto* e = obs::record(recorder, rec.t, obs::EventKind::kDecision)) {
    e->vm = rec.vm;
    e->host = rec.host;
    e->host2 = rec.from_host;
    e->label = obs::to_string(rec.kind);
    if (rec.kind != obs::DecisionRecord::Kind::kFirstFit) {
      for (std::size_t i = 0; i < obs::kDecisionTermCount; ++i) {
        e->arg(obs::decision_term_name(i), rec.terms[i]);
      }
      e->arg("total", rec.total);
      if (rec.runner_up >= 0) {
        e->arg("runner_up", static_cast<double>(rec.runner_up))
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

std::vector<sched::Action> ScoreBasedPolicy::schedule(
    const sched::SchedContext& ctx) {
  const sim::SimTime now = ctx.dc.simulator().now();

  // Degradation ladder (resilience control plane). The two degraded rungs
  // skip the score model entirely; kCachedClimb keeps the score model but
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
  // Nothing to place and no sweep due: the model would have no columns
  // and the climb no move, so skip both. The fleet refresh waits for the
  // next model; meanwhile the dirty journal holds each host at most once.
  if (ctx.queue.empty() && !consolidate) {
    last_stats_ = {};
    return {};
  }

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
      // in.
      HillClimbLimits limits;
      limits.max_moves = config_.max_moves;
      if (ctx.solver_budget > 0) {
        limits.max_moves = std::min(limits.max_moves, ctx.solver_budget);
      }
      limits.max_migration_moves = kMaxMigrationsPerRound;
      limits.min_migration_gain = config_.min_migration_gain;
      last_stats_ = hill_climb(model, limits);
      if (auto* rc = resilience::controller(ctx.dc.recorder())) {
        rc->note_solver_effort(now, last_stats_.moves);
      }
    }
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
    } else if (migrations_emitted < kMaxMigrationsPerRound) {
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
    model.emplace(ctx.dc, ctx.queue, config_.params, migration);
    return;
  }
  // The refresh drains the journal the power-off pass is checked against.
  power_off_ranking_.valid = false;
  fleet_.refresh(ctx.dc);
  model.emplace(fleet_, ctx.dc, ctx.queue, config_.params, migration);
}

namespace {

/// Overhead key of a candidate when the matrix has no column.
double overhead_score(const datacenter::Datacenter& dc, datacenter::HostId h) {
  return dc.host(h).spec.creation_cost_s + dc.host(h).spec.migration_cost_s;
}

}  // namespace

datacenter::HostId ScoreBasedPolicy::choose_power_off(
    const sched::SchedContext& ctx,
    const std::vector<datacenter::HostId>& idle_hosts) {
  EA_EXPECTS(!idle_hosts.empty());
  if (config_.incremental) {
    if (!continues_pass(ctx, idle_hosts)) rank_power_off(ctx, idle_hosts);
    PowerOffRanking& r = power_off_ranking_;
    const datacenter::HostId h =
        r.served < r.order.size() ? r.order[r.served] : idle_hosts.front();
    EA_EXPECTS(ctx.dc.host(h).is_idle_on());
    ++r.served;
    r.last = h;
    return h;
  }
  // Reference: rank by the aggregated matrix row of each idle candidate
  // (row == HostId) on a fresh model of the same layout the rounds use.
  std::optional<ScoreModel> model;
  emplace_model(ctx, config_.migration, model);
  // The strict > gives ties to the earlier list entry; a candidate must
  // score above -1 to be picked at all.
  const auto pick = [&](const auto& score) {
    datacenter::HostId best = idle_hosts.front();
    double best_score = -1;
    for (const datacenter::HostId h : idle_hosts) {
      EA_EXPECTS(ctx.dc.host(h).is_idle_on());
      // A non-placeable host (quarantined, breaker-vetoed) has an all-kInf
      // row that would aggregate highest; it is not a candidate.
      if (!model->placeable(static_cast<int>(h))) continue;
      const double agg = score(h);
      if (agg > best_score) {
        best_score = agg;
        best = h;
      }
    }
    return best;
  };
  if (model->cols() == 0) {
    // Empty matrix: fall back to overhead-based ranking so the choice
    // stays deterministic and sensible.
    return pick(
        [&](datacenter::HostId h) { return overhead_score(ctx.dc, h); });
  }
  return pick([&](datacenter::HostId h) {
    return model->row_aggregate(static_cast<int>(h));
  });
}

bool ScoreBasedPolicy::continues_pass(
    const sched::SchedContext& ctx,
    const std::vector<datacenter::HostId>& idle_hosts) const {
  const PowerOffRanking& r = power_off_ranking_;
  return r.valid && ctx.dc.simulator().now() == r.now &&
         ctx.dc.simulator().dispatched() == r.dispatched &&
         ctx.queue == r.queue && ctx.dc.fleet_dirty_count() == r.served &&
         idle_hosts.size() + r.served == r.idle_count &&
         !ctx.dc.host(r.last).is_idle_on();
}

void ScoreBasedPolicy::rank_power_off(
    const sched::SchedContext& ctx,
    const std::vector<datacenter::HostId>& idle_hosts) {
  std::optional<ScoreModel> model;
  emplace_model(ctx, config_.migration, model);
  ++power_off_stats_.rankings;
  // Each candidate's score, in list order; the stable sort below then
  // gives ties to the earlier entry, as the reference scan does.
  std::vector<std::pair<double, datacenter::HostId>> scored;
  std::map<ScoreModel::IdleRowKey, double> by_key;
  for (const datacenter::HostId h : idle_hosts) {
    EA_EXPECTS(ctx.dc.host(h).is_idle_on());
    const int row = static_cast<int>(h);
    if (!model->placeable(row)) continue;  // see the reference scan
    double score = 0;
    if (model->cols() == 0) {
      score = overhead_score(ctx.dc, h);
    } else {
      const auto [it, fresh] = by_key.try_emplace(model->idle_row_key(row));
      if (fresh) {
        it->second = model->row_aggregate(row);
        ++power_off_stats_.aggregates;
      }
      score = it->second;
    }
    if (score > -1) scored.emplace_back(score, h);
  }
  std::stable_sort(
      scored.begin(), scored.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });

  PowerOffRanking& r = power_off_ranking_;
  r.order.clear();
  for (const auto& [score, h] : scored) r.order.push_back(h);
  r.valid = true;
  r.now = ctx.dc.simulator().now();
  r.dispatched = ctx.dc.simulator().dispatched();
  r.queue = ctx.queue;
  r.idle_count = idle_hosts.size();
  r.served = 0;
}

}  // namespace easched::core
