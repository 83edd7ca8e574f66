// ccsched — structural algorithms on CSDFGs.
//
// The start-up scheduler (Section 3) and the priority function PF (Def. 3.6)
// need the zero-delay-DAG view of a CSDFG: ignore every edge carrying a
// loop-carried delay, leaving the intra-iteration dependence structure.  This
// module provides topological ordering, ASAP/ALAP control steps, the critical
// path, and node mobility (Def. 3.4) over that view.
#pragma once

#include <vector>

#include "core/csdfg.hpp"

namespace ccs {

/// ASAP/ALAP timing of the zero-delay DAG (resource- and
/// communication-unconstrained).  Control steps are 1-based, matching the
/// paper's schedule tables.  64-bit: a zero-delay path of int-sized task
/// times sums past INT_MAX.
struct DagTiming {
  /// Earliest start step of each node.
  std::vector<long long> asap_cb;
  /// Latest start step of each node such that the critical path length is
  /// not exceeded.
  std::vector<long long> alap_cb;
  /// Length of the critical path in control steps (the minimum possible
  /// schedule length with unlimited processors and free communication).
  long long critical_path = 0;

  /// Mobility of node v (Def. 3.4 specialized to the start of scheduling):
  /// alap_cb[v] - asap_cb[v].  A node with zero mobility is on the critical
  /// path.
  [[nodiscard]] long long mobility(NodeId v) const {
    return alap_cb[v] - asap_cb[v];
  }
};

/// Topological order of the zero-delay subgraph.  Deterministic: among ready
/// nodes the lowest id is emitted first.  Throws GraphError if the zero-delay
/// subgraph has a cycle (the CSDFG is illegal).
[[nodiscard]] std::vector<NodeId> zero_delay_topological_order(
    const Csdfg& g);

/// Computes ASAP/ALAP start steps and the critical path of the zero-delay
/// DAG using computation times only (communication-free, as in Def. 3.4 —
/// mobility measures schedule slack, not network slack).
[[nodiscard]] DagTiming compute_dag_timing(const Csdfg& g);

/// Nodes with no zero-delay incoming edges (the roots the list scheduler
/// seeds its ready list with).
[[nodiscard]] std::vector<NodeId> zero_delay_roots(const Csdfg& g);

/// True iff `v` is reachable from `u` using zero-delay edges only.
[[nodiscard]] bool zero_delay_reachable(const Csdfg& g, NodeId u, NodeId v);

/// True iff the undirected view of `g` (ALL edges, delayed or not) is
/// connected.  Empty and single-node graphs count as connected.  The cut
/// bound of the analysis subsystem needs this: on a connected graph any
/// schedule that uses both sides of a processor cut must split at least
/// one dependence edge across it.
[[nodiscard]] bool weakly_connected(const Csdfg& g);

}  // namespace ccs
