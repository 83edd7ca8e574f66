// ccsched — the denominator sweep, kept as the test-only cycle-ratio referee.
//
// These are the procedures ccsched computed the iteration bound and its
// critical-cycle witness with before core/iteration_bound's cycle-jumping
// max_cycle_ratio(): a binary search of p for every candidate denominator
// q = 1..min(sum d, |V| * max d), one Bellman–Ford probe per step, and a
// second Bellman–Ford run at the bound for the witness.  They are slow
// (roughly n^3.4 on generated graphs) and use 64-bit arithmetic, so keep
// their inputs small.  The differential tests (tests/test_cycle_ratio.cpp)
// hold the production routines to exactly their ratios and witness edge
// lists; nothing outside tests/ links this file.
#pragma once

#include "core/critical_cycle.hpp"
#include "core/csdfg.hpp"
#include "core/iteration_bound.hpp"

namespace ccs::referee {

/// True iff some cycle of the graph with edge weight q*t(u) - p*d(e) is
/// strictly positive — i.e. the iteration bound exceeds p/q.  Checked by a
/// longest-path Bellman–Ford from all-zero distances, |V| passes at most.
[[nodiscard]] bool has_cycle_ratio_above(const Csdfg& g, long long p,
                                         long long q);

/// The iteration bound by the denominator sweep: for each q up to the
/// largest possible cycle delay, the least p with !above(p, q) gives the
/// least fraction >= B with denominator q; the minimum over q is B.
/// Acyclic graphs have bound 0/1.  Throws GraphError if `g` is illegal.
[[nodiscard]] Rational iteration_bound(const Csdfg& g);

/// The critical-cycle witness: Bellman–Ford to convergence at the sweep's
/// bound, then a DFS over the tight edges (roots and edges in id order)
/// returning the first cycle closed.  Empty for acyclic graphs.
[[nodiscard]] CycleWitness critical_cycle(const Csdfg& g);

}  // namespace ccs::referee
