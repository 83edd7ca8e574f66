// ccsched — cycle-accurate execution of static cyclic schedules.
//
// The paper evaluates schedules analytically; this simulator is the
// independent referee the library adds on top.  It executes K iterations of
// a scheduled CSDFG on the target topology under store-and-forward
// messaging (each hop of an m-unit message occupies a link for m cycles) in
// two modes:
//
//  * static    — tasks start exactly where the table says (iteration i's
//                copy of v starts at i*L + CB(v)); every data arrival is
//                checked, and late arrivals are reported.  A schedule passes
//                iff validate_schedule passes — the two referees are
//                independent implementations of the same contract.
//  * self-timed — tasks keep their processor assignment and per-processor
//                order but start as soon as (a) their processor is free and
//                (b) all operands have arrived.  This prices schedules that
//                were built ignoring communication (the paper's baselines):
//                the achieved steady-state initiation interval is the
//                honest cost of their placements.
//
// Optionally links are contended: a link carries one message at a time and
// messages reserve links in deterministic production order.  The paper
// assumes contention-free channels ("the communication channels are multiple
// so that there is no congestion"); the contention switch quantifies what
// that assumption hides (ablation A3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/routing.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"
#include "robust/fault_plan.hpp"

namespace ccs {

/// Simulation configuration.
struct ExecutorOptions {
  /// Iterations of the loop body to execute (>= 1).
  int iterations = 64;
  /// Leading iterations excluded from the steady-state window (>= 0,
  /// < iterations).
  int warmup = 8;
  /// Model per-link exclusivity (store-and-forward with single-message
  /// links).  Off by default, matching the paper's no-congestion assumption.
  bool link_contention = false;
  /// Routing policy for message paths (matters under contention); nullptr
  /// selects the topology's BFS shortest paths.  Non-owning: the router
  /// must outlive the call and be built over the same topology.
  const Router* router = nullptr;
  /// Record one TaskEvent per executed instance in ExecutionStats::trace
  /// (off by default; traces grow as iterations x tasks).
  bool record_trace = false;
  /// Fault plan to inject (robust/fault_plan.hpp); nullptr or an empty plan
  /// runs fault-free.  Non-owning: the plan must outlive the call.  Faults
  /// are a *static-mode* feature — the static table is the artifact whose
  /// resilience is being probed; execute_self_timed rejects a non-empty
  /// plan (contract check).
  const FaultPlan* faults = nullptr;
};

/// One executed task instance, for Gantt rendering and trace analysis.
struct TaskEvent {
  NodeId node = 0;
  long long iteration = 0;
  PeId pe = 0;
  long long start = 0;   ///< First busy cycle (1-based absolute time).
  long long finish = 0;  ///< Last busy cycle.
};

/// What the simulator observed.
struct ExecutionStats {
  /// Absolute finish cycle of each executed iteration (size = iterations).
  std::vector<long long> iteration_finish;
  /// (finish(last) - finish(warmup)) / (last - warmup): the sustained cycles
  /// per iteration.  Equal to the table length for a tight static schedule.
  double steady_initiation_interval = 0.0;
  /// Finish cycle of the last iteration.
  long long makespan = 0;
  /// Messages transported (inter-PE edges × iterations executed).
  long long total_messages = 0;
  /// Sum over messages of hops × volume (the network work).
  long long total_traffic = 0;
  /// Static mode only: number of (edge, iteration) pairs whose operand
  /// arrived after the scheduled start.  Zero iff the table is feasible.
  long long late_arrivals = 0;
  /// Per-instance events when ExecutorOptions::record_trace is set,
  /// in execution order.
  std::vector<TaskEvent> trace;
  /// Fault injection only: instances not executed because their processor
  /// was fail-stop at their iteration.
  long long failed_instances = 0;
  /// Fault injection only: instances not executed because an operand was
  /// never produced (cascade starvation) or its message was lost on a dead
  /// link.
  long long starved_instances = 0;
  /// Fault injection only: messages dropped on a dead link.
  long long lost_messages = 0;
  /// Distinct fault activations during the run (one per emitted fault
  /// event: each fail-stop PE and dead link at first effect, each jitter
  /// directive up front).
  long long faults_injected = 0;
  /// First iteration at which any instance failed or starved; -1 when the
  /// run was unaffected by the plan.
  long long first_failure_iteration = -1;
  /// Self-timed mode only: the table's per-processor task order and its
  /// zero-delay data dependences form a cycle, so blocking execution can
  /// never make progress.  Only possible for invalid tables (e.g.
  /// adversarial perturbations); all other fields are zero when set.
  bool deadlocked = false;
};

/// Runs the static mode: tasks start exactly as scheduled; reports
/// late_arrivals.  The table must be complete.  Contention is not modeled in
/// static mode (the table was constructed under the no-congestion
/// assumption; late arrivals under contention are a self-timed question).
/// With ExecutorOptions::faults set, fail-stop processors skip their
/// instances, dead links drop messages (starving the consumers), and jitter
/// stretches execution times — each reported through the fault counters and
/// one `fault` trace event per activation.
/// `obs` (optional) records the simulate span, sim.* counters, and one
/// sim_run event.
[[nodiscard]] ExecutionStats execute_static(const Csdfg& g,
                                            const ScheduleTable& table,
                                            const Topology& topo,
                                            const ExecutorOptions& options = {},
                                            const ObsContext& obs = {});

/// Runs the self-timed mode: processor assignment and per-processor task
/// order are taken from the table, start times are earliest-feasible.  The
/// table must be complete.  `obs` as in execute_static.
[[nodiscard]] ExecutionStats execute_self_timed(
    const Csdfg& g, const ScheduleTable& table, const Topology& topo,
    const ExecutorOptions& options = {}, const ObsContext& obs = {});

}  // namespace ccs
