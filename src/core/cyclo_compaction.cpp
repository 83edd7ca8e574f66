#include "core/cyclo_compaction.hpp"

#include <optional>

#include "util/contracts.hpp"

namespace ccs {

CycloCompactionResult cyclo_compact(const Csdfg& g, const Topology& topo,
                                    const CommModel& comm,
                                    const CycloCompactionOptions& options,
                                    const ObsContext& obs) {
  g.require_legal();
  const ObsSpan run_span = obs.span("compact");
  const ScheduleTable startup =
      start_up_schedule(g, topo, comm, options.startup, obs);
  return cyclo_compact_from(g, startup, comm, options, obs);
}

CycloCompactionResult cyclo_compact_from(const Csdfg& g,
                                         const ScheduleTable& startup,
                                         const CommModel& comm,
                                         const CycloCompactionOptions& options,
                                         const ObsContext& obs) {
  CCS_EXPECTS(startup.node_count() == g.node_count());
  CCS_EXPECTS(startup.complete());
  const int passes = options.passes > 0
                         ? options.passes
                         : 3 * static_cast<int>(std::max<std::size_t>(
                                   1, g.node_count()));

  // The engine owns the working graph, retiming, and placements; each pass
  // is rotate / remap / commit, and a failed pass rolls back.  It is built
  // at the first pass that runs, so a run stopped before pass 1 builds none.
  std::optional<RemapEngine> engine;

  CycloCompactionResult result{g,       Retiming(g.node_count()),
                               startup, startup,
                               {},      0,
                               {},      {}};
  // The best-so-far stays flat (placements here, the retiming in `result`)
  // and is materialized once at the end; `best_length` is its length.
  FlatSchedule best;
  int best_length = startup.length();

  // Budget bookkeeping: all three stop conditions are evaluated at pass
  // boundaries so a budgeted run is a deterministic prefix of the
  // unbudgeted one (given a deterministic clock).
  const RunBudget& budget = options.budget;
  const BudgetClock* clock =
      budget.clock != nullptr ? budget.clock : &steady_budget_clock();
  const long long start_ms =
      budget.deadline_ms > 0 ? clock->now_ms() : 0;
  int stale_passes = 0;  // Consecutive passes without a new best.

  const auto budget_stop = [&](int pass) -> const char* {
    if (budget.max_passes > 0 && pass > budget.max_passes)
      return "max-passes";
    if (budget.deadline_ms > 0 &&
        clock->now_ms() - start_ms >= budget.deadline_ms)
      return "deadline";
    if (budget.patience > 0 && stale_passes >= budget.patience)
      return "patience";
    if (budget.stop != nullptr && budget.stop->stop_requested(best_length))
      return "preempted";
    return nullptr;
  };

  for (int pass = 1; pass <= passes; ++pass) {
    if (const char* reason = budget_stop(pass)) {
      result.stop_reason = reason;
      obs.count("compaction.budget_stops");
      obs.emit(BudgetEvent{reason, pass, best_length});
      break;
    }
    const int previous_length = engine ? engine->length() : startup.length();
    if (previous_length <= 0) break;
    if (!engine) {
      engine.emplace(g, comm);
      engine->bind(startup);
    }
    const ObsSpan pass_span = obs.span("compact.pass");
    obs.count("compaction.passes");
    obs.emit(PassStartEvent{pass, previous_length});

    const std::vector<NodeId> rotated = engine->rotate();
    if (obs.metrics != nullptr)
      obs.metrics->add("rotation.nodes",
                       static_cast<long long>(rotated.size()));
    if (obs.tracing()) obs.emit(RotationEvent{pass, rotated});

    const std::optional<int> remapped =
        engine->remap(rotated, previous_length, options.policy,
                      options.selection, obs);
    if (!remapped) {
      // Without relaxation a pass that cannot keep the length is abandoned;
      // the configuration would repeat forever, so the loop ends (the paper:
      // "the remapping phase does not occur in this case").
      engine->rollback();
      result.length_trace.push_back(previous_length);
      obs.count("compaction.rollbacks");
      obs.emit(RollbackEvent{pass, previous_length,
                             "no-placement-within-previous-length"});
      break;
    }

    engine->commit();
    result.length_trace.push_back(*remapped);

    const bool improved = *remapped < best_length;
    if (improved) {
      engine->save(best);
      result.retiming = engine->retiming();
      best_length = *remapped;
      result.best_pass = pass;
      stale_passes = 0;
      obs.count("compaction.improved_passes");
    } else {
      ++stale_passes;
    }
    obs.emit(PassEndEvent{pass, *remapped, improved, best_length});
  }

  if (result.best_pass > 0) {
    // The retimed graph follows from the retiming: d_r(e) = d(e) + r(u) -
    // r(v), exactly the delays the engine carried at the winning pass.
    result.best = engine->table(best);
    result.retiming.apply(result.retimed_graph);
  }
  if (engine) result.remap_stats = engine->stats();
  CCS_ENSURES(result.best.length() == best_length);
  CCS_ENSURES(result.best.length() <= startup.length());
  return result;
}

}  // namespace ccs
