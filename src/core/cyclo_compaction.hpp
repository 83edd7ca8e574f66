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

#include <functional>
#include <optional>
#include <string>
#include <vector>

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

  /// The pass count z these options ask of a run on `g`: `passes`, or
  /// 3 * |V| when it is 0.
  [[nodiscard]] int pass_count(const Csdfg& g) const;
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
  /// external BudgetStopToken asked the run to yield or, in a portfolio,
  /// the best reached the lower bound (a budget_exhausted event carries the
  /// same reason); empty when every pass ran or a without-relaxation
  /// rollback ended the loop.
  std::string stop_reason;
  /// Remap cost accounting accumulated over every pass (docs/API.md):
  /// occupancy bitset words examined and AN evaluations.
  RemapStats remap_stats{};

  [[nodiscard]] int startup_length() const { return startup.length(); }
  [[nodiscard]] int best_length() const { return best.length(); }
};

/// What a run of a given pass count reports, short of its tables: the
/// CycloCompactionResult fields a portfolio row needs.
struct CompactionReading {
  int best_length = 0;
  int best_pass = 0;
  std::string stop_reason;
  RemapStats remap_stats{};
};

/// One cyclo-compaction run as a trajectory: the rotate-remap passes from
/// one start-up table under one (policy, selection, budget).  Each pass
/// depends only on the current table and the retimed graph, so the run is
/// deterministic and a run of z passes is exactly the first z passes of any
/// longer one (docs/ALGORITHM.md §5.1).  The trajectory can therefore be
/// extended in steps and read at any pass count it has reached: a reading
/// at z is what a run configured with `passes = z` returns.  This is the
/// one pass loop of the toolkit — cyclo_compact_from runs a trajectory to
/// `options.passes`, and the portfolio runs one per distinct trajectory and
/// lets every attempt read its result at its own pass count.
///
/// Stops: the budget's conditions, the `floor` and a without-relaxation
/// rollback end the trajectory for every reading past them; extend()'s
/// `yield` stops only the call it was given to.  Not thread-safe.
class CompactionTrajectory {
 public:
  /// `g` (legal), `startup` (start_up_schedule's table for g) and `comm`
  /// must outlive the trajectory.  Of `options` only the policy, selection
  /// and budget are read.  The budget's deadline counts from the clock
  /// reading `origin_ms` (RunBudget::start_ms).  `floor` > 0 is a lower
  /// bound on the schedule length: once the best reaches it the run stops
  /// ("preempted"), since no pass can improve on it.  `reads` lists the
  /// pass counts the trajectory will be read at; result() can materialize
  /// a reading at those and at the furthest pass run, because a best that
  /// a later pass supersedes is kept only when one of them needs it.
  CompactionTrajectory(const Csdfg& g, const ScheduleTable& startup,
                       const CommModel& comm,
                       const CycloCompactionOptions& options,
                       long long origin_ms, int floor,
                       std::vector<int> reads);

  /// Runs passes until `passes` have run or the trajectory ends.  Before
  /// each pass, after the trajectory's own stop conditions, `yield` (when
  /// set) may stop this call: it emits the "preempted" budget event and
  /// returns false, leaving the trajectory resumable.  Returns true when
  /// the trajectory reached `passes` or ended.  `obs` receives the events,
  /// counters and spans of the passes this call runs.
  bool extend(int passes, const ObsContext& obs,
              const std::function<bool()>& yield = {});

  /// The reading at pass count `passes`; requires that extend(passes)
  /// returned true.
  [[nodiscard]] CompactionReading read(int passes) const;

  /// The full result of the reading at `passes` (see `reads`).
  [[nodiscard]] CycloCompactionResult result(int passes) const;

  /// Drops the remap engine and every kept best that no reading at `keep`
  /// needs; the trajectory can then be read but no longer extended.
  void release(const std::vector<int>& keep);

 private:
  /// A best-so-far schedule, first reached at `pass` (0: the start-up).
  struct Best {
    int pass = 0;
    FlatSchedule table;
    Retiming retiming{0};
  };
  /// One pass as the readings see it.
  struct Pass {
    int length = 0;     ///< Schedule length after the pass.
    int best_pass = 0;  ///< Pass of the best so far after it.
    RemapStats stats;   ///< Engine totals after it.
  };

  [[nodiscard]] const char* stop_reason(int pass) const;
  void run_pass(int pass, const ObsContext& obs);
  [[nodiscard]] int best_length() const;
  /// Passes a reading at `passes` covers.
  [[nodiscard]] int passes_read(int passes) const;
  [[nodiscard]] const Best& best_at(int pass) const;

  const Csdfg* g_;
  const ScheduleTable* startup_;
  const CommModel* comm_;
  RemapPolicy policy_;
  RemapSelection selection_;
  RunBudget budget_;
  long long origin_ms_;
  int floor_;
  std::vector<int> reads_;  ///< Sorted.

  std::optional<RemapEngine> engine_;  ///< Built at the first pass run.
  std::vector<Pass> passes_;
  Best best_;
  std::vector<Best> kept_;  ///< Superseded bests a read still needs.
  int stale_ = 0;           ///< Consecutive passes without a new best.
  bool ended_ = false;
  std::string end_reason_;  ///< Budget stop of an ended trajectory.
  bool released_ = false;
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
/// cyclo_compact is start_up_schedule followed by this call, which runs one
/// CompactionTrajectory to `options.passes` and materializes it.  `startup`
/// must be start_up_schedule's table for the legal graph `g`
/// (`options.startup` is not consulted here); the budget's deadline counts
/// from this call.  Opens no span of its own: callers run it inside their
/// "compact" span.
[[nodiscard]] CycloCompactionResult cyclo_compact_from(
    const Csdfg& g, const ScheduleTable& startup, const CommModel& comm,
    const CycloCompactionOptions& options, const ObsContext& obs = {});

}  // namespace ccs
