// ccsched — extracting the critical cycle.
//
// iteration_bound() reports the throughput limit; this module reports the
// *witness*: a simple cycle whose computation/delay ratio attains the
// bound.  The critical cycle is the designer's actionable diagnostic — the
// recurrence to shorten, the delays to deepen (c-slowdown), or the tasks
// to speed up — and the CLI's `info` command prints it.
#pragma once

#include <vector>

#include "core/csdfg.hpp"
#include "core/iteration_bound.hpp"

namespace ccs {

/// A simple cycle with its totals.
struct CycleWitness {
  std::vector<EdgeId> edges;  ///< In cycle order; edge i's head feeds i+1.
  long long total_time = 0;   ///< Sum of node times around the cycle.
  long long total_delay = 0;  ///< Sum of edge delays around the cycle.

  /// The cycle's time/delay ratio as an exact rational.
  [[nodiscard]] Rational ratio() const;
};

/// Finds a simple cycle of `g` attaining the iteration bound.  Returns an
/// empty witness (no edges) for acyclic graphs.  Deterministic.
///
/// Method: at B = p/q, the potentials of max_cycle_ratio()'s converging
/// probe make every cycle non-positive; an edge is tight when pot[to] ==
/// pot[from] + q*t(u) - p*d(e), and every cycle of tight edges is critical.
/// A DFS over tight edges (roots and edges in id order) returns the first
/// cycle it closes; no second Bellman–Ford runs.  Throws GraphError if `g`
/// is illegal.
[[nodiscard]] CycleWitness critical_cycle(const Csdfg& g);

/// Human-readable rendering: "A -> B -> A (t=4, d=3, ratio 4/3)".
[[nodiscard]] std::string describe_cycle(const Csdfg& g,
                                         const CycleWitness& cycle);

}  // namespace ccs
