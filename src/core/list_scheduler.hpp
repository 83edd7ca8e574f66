// ccsched — start-up scheduling (Section 3.1 of the paper).
//
// A modified list scheduler produces the initial static schedule that
// cyclo-compaction then shortens.  It works on the zero-delay DAG view of
// the CSDFG ("the input ... with no feedback edges"): readiness and ordering
// follow intra-iteration dependences only, while every candidate placement is
// checked against the communication model — a consumer on processor p_j may
// start only after max_i { CE(u_i) + M(PE(u_i), p_j, c(e_i)) } (the
// algorithm's `cm < cs` test).
//
// After all tasks are placed, the table length is raised to the PSL bound
// (min_feasible_length) so that the returned schedule is valid as a *cyclic*
// schedule, including its loop-carried edges.
#pragma once

#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/priority.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Configuration of the start-up scheduler.
struct StartUpOptions {
  /// Ready-list ordering; the paper's PF by default.
  PriorityRule priority = PriorityRule::kCommunicationSensitive;
  /// When false, placement feasibility ignores communication delays — the
  /// comm-oblivious list scheduling baseline (the resulting table generally
  /// violates the communication constraints; price it with the self-timed
  /// simulator, never with validate_schedule).
  bool comm_aware = true;
  /// Model pipelined processing elements (tasks occupy only their issue
  /// step).
  bool pipelined_pes = false;
  /// Heterogeneous machine: per-PE slowdown factors (>= 1).  Empty means
  /// homogeneous.  When non-empty, the size must equal the topology's
  /// processor count.
  std::vector<int> pe_speeds;

  [[nodiscard]] bool operator==(const StartUpOptions&) const = default;
};

/// Runs the start-up scheduling algorithm of Section 3.1 on `g` for the
/// machine described by `comm` (whose topology supplies the processor
/// count).  Deterministic.  Throws GraphError if `g` is illegal.  `obs`
/// (optional) records the startup.list span, startup.* counters, and one
/// startup_done event.
[[nodiscard]] ScheduleTable start_up_schedule(const Csdfg& g,
                                              const Topology& topo,
                                              const CommModel& comm,
                                              const StartUpOptions& options = {},
                                              const ObsContext& obs = {});

}  // namespace ccs
