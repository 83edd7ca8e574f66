// ccsched — retiming of CSDFGs.
//
// Retiming (Leiserson & Saxe, "Retiming synchronous circuitry") redistributes
// the loop-carried delays of a cyclic graph without changing its behaviour.
// The paper's rotation phase (Def. 4.1) *is* a retiming: rotating a node set
// J draws one delay from every edge entering J and pushes one onto every edge
// leaving J.
//
// Sign convention (the paper's, Section 2): r(v) counts delays taken from the
// incoming edges of v and moved to its outgoing edges, so a retimed edge
// u -> v carries
//     d_r(e) = d(e) + r(u) - r(v).
// (This is the mirror image of Leiserson–Saxe's convention; the min-period
// algorithm below accounts for the flip.)
#pragma once

#include <vector>

#include "core/csdfg.hpp"
#include "core/iteration_bound.hpp"

namespace ccs {

/// A retiming function r : V -> Z under the paper's sign convention.
class Retiming {
public:
  /// Identity retiming for a graph with `node_count` nodes.
  explicit Retiming(std::size_t node_count) : r_(node_count, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return r_.size(); }

  /// r(v): delays moved from v's incoming edges to its outgoing edges.
  [[nodiscard]] long long of(NodeId v) const;

  /// Sets r(v).
  void set(NodeId v, long long value);

  /// Adds `amount` to r(v) — rotation increments by one.
  void add(NodeId v, long long amount = 1);

  /// Delay edge `e` of `g` would carry after this retiming:
  /// d(e) + r(from) - r(to).  May be negative for an illegal retiming.
  [[nodiscard]] long long retimed_delay(const Csdfg& g, EdgeId e) const;

  /// True iff every retimed delay is non-negative (legal retiming).
  [[nodiscard]] bool is_legal_for(const Csdfg& g) const;

  /// Applies the retiming to `g`, rewriting every edge delay.  Atomic:
  /// throws GraphError and leaves `g` unchanged if any retimed delay would
  /// be negative.
  void apply(Csdfg& g) const;

  /// Pointwise sum of two retimings (applying `a` then `b` equals applying
  /// a+b to the original graph).
  [[nodiscard]] friend Retiming operator+(const Retiming& a,
                                          const Retiming& b) {
    Retiming sum(a.size());
    for (NodeId v = 0; v < a.size(); ++v) sum.r_[v] = a.of(v) + b.of(v);
    return sum;
  }

  [[nodiscard]] bool operator==(const Retiming&) const = default;

private:
  std::vector<long long> r_;
};

/// The clock period of a CSDFG: the maximum total computation time along any
/// zero-delay path (what a synchronous implementation of one iteration
/// requires; equals the zero-delay-DAG critical path).
[[nodiscard]] long long clock_period(const Csdfg& g);

/// Result of min-period retiming.
struct MinPeriodResult {
  /// The greatest legal retiming with r <= 0 that achieves `period`.
  Retiming retiming;
  long long period = 0;  ///< The minimum achievable clock period.
  int probes = 0;  ///< FEAS probes run, one per candidate period.
  long long rounds = 0;  ///< Longest-path rounds over all probes.
};

/// Leiserson–Saxe minimum-period retiming, adapted to node-weighted CSDFGs
/// and the paper's sign convention.  Searches the integer period c from
/// max(t_max, ⌈IB⌉) up to the input's clock period, which r = 0 achieves,
/// with Leiserson–Saxe FEAS probes: from r = 0, each round computes every
/// node's longest zero-delay path Δ(v) in O(V + E) and sets r(v) -= 1
/// wherever Δ(v) > c, until max Δ <= c (feasible) or |V| - 1 rounds of
/// moves fall short (infeasible).  The floor is probed first, ⌈IB⌉ + t_max
/// next, then the search bisects.
///
/// O(probes · V · (V + E)) at worst; a feasible probe usually stops after
/// a few rounds.  `iteration_bound` must be g's iteration bound
/// (max_cycle_ratio): a larger one makes the floor unsound.  Used both as
/// a substrate (rotation is incremental retiming) and as the
/// "retime-then-schedule" baseline in the benches.
///
/// Throws GraphError if `g` is illegal.
[[nodiscard]] MinPeriodResult min_period_retiming(
    const Csdfg& g, const Rational& iteration_bound);

}  // namespace ccs
