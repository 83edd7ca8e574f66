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
  Retiming retiming;  ///< A legal retiming achieving `period`.
  long long period = 0;  ///< The minimum achievable clock period.
};

/// Leiserson–Saxe minimum-period retiming, adapted to node-weighted CSDFGs
/// and the paper's sign convention.  Computes the W/D path matrices
/// (Floyd–Warshall over (delay, -time) lexicographic weights), binary
/// searches the achievable period over the distinct D values, and solves the
/// resulting difference constraints with Bellman–Ford.
///
/// O(V^3 + V·E·log V).  Used both as a substrate (rotation is incremental
/// retiming) and as the "retime-then-schedule" baseline in the benches.
///
/// Throws GraphError if `g` is illegal.
[[nodiscard]] MinPeriodResult min_period_retiming(const Csdfg& g);

}  // namespace ccs
