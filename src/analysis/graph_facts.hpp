// ccsched — the facts of one graph, each computed once.
//
// Lint (CCS-G008, CCS-A001, CCS-A002), the bound passes (CCS-B001, B004,
// B006), the certifier's CCS-S015 check, the Solver's lower bound, the
// portfolio's pruning floor and `ccsched info` all read the same facts of a
// graph.  GraphFacts is a view over one graph that builds each fact on
// first use, exactly once, under a span on the process-global profiler:
//
//   facts.cycle_ratio  the maximum cycle ratio (the iteration bound) with a
//                      critical cycle attaining it (core/critical_cycle.hpp)
//   facts.min_period   Φ_min, the smallest zero-delay critical path over all
//                      legal retimings, by FEAS probes floored by the
//                      cycle ratio (core/retiming.hpp)
//   facts.dag_timing   ASAP/ALAP timing of the zero-delay DAG
//                      (core/graph_algo.hpp)
//
// Retiming leaves every cycle's total time and total delay unchanged, so a
// legal retiming of a graph has the same cycle ratio, the same critical
// cycles and the same Φ_min (docs/ALGORITHM.md §7).  The view of such a
// graph built by retimed() reads those facts off the original's view; its
// DAG timing, which depends on where the delays sit, it builds itself.
//
// Not thread-safe: the const accessors fill the memo.  Read a view on one
// thread only.
#pragma once

#include <optional>

#include "core/critical_cycle.hpp"
#include "core/csdfg.hpp"
#include "core/graph_algo.hpp"
#include "core/iteration_bound.hpp"

namespace ccs {

class GraphFacts {
public:
  /// A view of `g` with nothing computed yet; `g` must outlive it.
  /// Implicit, so a Csdfg passes wherever a view is expected: the view
  /// then lives for that one call.
  GraphFacts(const Csdfg& g)  // NOLINT(google-explicit-constructor)
      : g_(&g) {}
  /// A view of a temporary graph would dangle.
  GraphFacts(Csdfg&&) = delete;

  /// The view of `retimed`, which must be a legal retiming of
  /// original.graph(): the same tasks, times and edges, delays moved by a
  /// legal retiming (the certifier's CCS-S008/S010 audit checks exactly
  /// this).  Cycle ratio, critical cycle and Φ_min are read off `original`,
  /// which must outlive the view.
  [[nodiscard]] static GraphFacts retimed(const Csdfg& retimed,
                                          const GraphFacts& original);
  static GraphFacts retimed(const Csdfg&, GraphFacts&&) = delete;
  static GraphFacts retimed(Csdfg&&, const GraphFacts&) = delete;

  [[nodiscard]] const Csdfg& graph() const noexcept { return *g_; }

  /// A simple cycle attaining the maximum cycle ratio; no edges when the
  /// graph is acyclic.  The graph must be legal (throws GraphError).
  [[nodiscard]] const CycleWitness& critical_cycle() const;

  /// The iteration bound: the critical cycle's ratio, 0/1 when acyclic.
  [[nodiscard]] Rational iteration_bound() const {
    return critical_cycle().ratio();
  }

  /// Φ_min, the minimum clock period over all legal retimings.  Builds the
  /// cycle ratio first: its iteration bound floors the search.  The graph
  /// must be legal (throws GraphError).
  [[nodiscard]] long long min_period() const;

  /// ASAP/ALAP timing and critical path of the zero-delay DAG.  The graph
  /// must be legal (throws GraphError).
  [[nodiscard]] const DagTiming& dag_timing() const;

private:
  const Csdfg* g_;
  /// Set on a retimed() view: the retiming-invariant facts come from here.
  const GraphFacts* original_ = nullptr;
  mutable std::optional<CycleWitness> critical_cycle_;
  mutable std::optional<long long> min_period_;
  mutable std::optional<DagTiming> dag_timing_;
};

}  // namespace ccs
