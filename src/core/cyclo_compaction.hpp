// ccsched — the cyclo-compaction scheduling algorithm (Section 4).
//
// Algorithm Cyclo-Compact(G, z):
//   S <- Start-Up-Schedule(G); Q <- S
//   repeat z times:
//     (G, S) <- Rotate-Remap(G, S)      // rotation (implicit retiming)
//                                       // + communication-sensitive remap
//     if length(S) < length(Q): Q <- S
//   return Q
//
// Each pass deallocates the first row of the table, retimes the graph
// accordingly (loop pipelining), and remaps the freed tasks to the slots the
// anticipation function suggests.  Without relaxation the pass length never
// grows (Theorem 4.4); with relaxation intermediate growth is allowed and
// the best table seen is returned — the paper's recommended configuration
// ("the remapping scheme with relaxation yields the better result").
#pragma once

#include <vector>

#include <string>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/budget.hpp"
#include "core/csdfg.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Configuration of the cyclo-compaction driver.
struct CycloCompactionOptions {
  /// Remapping policy (Def. 4.2); the paper's experiments favor relaxation.
  RemapPolicy policy = RemapPolicy::kWithRelaxation;
  /// Slot selection; kBidirectional is the default refinement, while
  /// kAnticipationOnly reproduces the paper's literal procedure.
  RemapSelection selection = RemapSelection::kBidirectional;
  /// Number of rotate-remap passes z; 0 selects the default 3 * |V|
  /// (every task is rotated a few times — the examples in the paper converge
  /// within a handful of passes).
  int passes = 0;
  /// Start-up scheduler configuration.
  StartUpOptions startup;
  /// Cooperative stop conditions (core/budget.hpp).  Checked at pass
  /// boundaries; a budget stop returns the best-so-far schedule and sets
  /// CycloCompactionResult::stop_reason.  The default budget never fires.
  RunBudget budget;
};

/// Everything a caller needs to audit a cyclo-compaction run.
struct CycloCompactionResult {
  /// The retimed graph corresponding to `best` (delays as after the winning
  /// pass; the prologue/epilogue realize the retiming at run time).
  Csdfg retimed_graph;
  /// Total retiming from the input graph to `retimed_graph`.
  Retiming retiming;
  /// The shortest valid schedule found (Q in the algorithm).
  ScheduleTable best;
  /// The start-up schedule the compaction began from.
  ScheduleTable startup;
  /// Schedule length after each pass (index 0 = after pass 1).  A pass that
  /// stalls (without-relaxation rollback) repeats the previous value and
  /// ends the trace.
  std::vector<int> length_trace;
  /// Pass index (1-based) at which `best` was first reached; 0 when the
  /// start-up schedule was never improved.
  int best_pass = 0;
  /// Why the run stopped before its configured pass count: "max-passes",
  /// "deadline", or "patience" when a budget fired, or "preempted" when an
  /// external BudgetStopToken asked the run to yield (a budget_exhausted
  /// event carries the same reason); empty when every pass ran or a
  /// without-relaxation rollback ended the loop.
  std::string stop_reason;
  /// Remap cost accounting accumulated over every pass (docs/API.md):
  /// occupancy bitset words examined and AN evaluations.
  RemapStats remap_stats{};

  [[nodiscard]] int startup_length() const { return startup.length(); }
  [[nodiscard]] int best_length() const { return best.length(); }
};

/// Runs start-up scheduling followed by z rotate-remap passes of
/// cyclo-compaction on machine `topo` under `comm`.  Deterministic; throws
/// GraphError if `g` is illegal.  Every schedule returned (startup and best)
/// satisfies validate_schedule.
///
/// `obs` (optional) streams the run: pass_start / rotation / remap_target /
/// remap_decision / psl_pad / rollback / pass_end / budget_exhausted events
/// plus the compaction.* counters and the compact / startup.list / remap
/// spans (docs/OBSERVABILITY.md).  The default context is disabled and
/// costs nothing.
[[nodiscard]] CycloCompactionResult cyclo_compact(
    const Csdfg& g, const Topology& topo, const CommModel& comm,
    const CycloCompactionOptions& options = {}, const ObsContext& obs = {});

/// The rotate-remap passes of cyclo_compact from a given start-up table:
/// cyclo_compact is start_up_schedule followed by this call, and the
/// portfolio shares one start-up table between the attempts whose
/// StartUpOptions agree.  `startup` must be start_up_schedule's table for
/// the legal graph `g` (`options.startup` is not consulted here).  Opens no
/// span of its own: callers run it inside their "compact" span.
[[nodiscard]] CycloCompactionResult cyclo_compact_from(
    const Csdfg& g, const ScheduleTable& startup, const CommModel& comm,
    const CycloCompactionOptions& options, const ObsContext& obs = {});

}  // namespace ccs
