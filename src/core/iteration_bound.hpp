// ccsched — the iteration bound of a cyclic data-flow graph.
//
// The iteration bound B(G) = max over cycles C of (sum of t over C) /
// (sum of d over C) is the fundamental throughput limit of a cyclic DFG: no
// schedule, on any number of processors with any communication system, can
// sustain one iteration per fewer than B(G) time units.  The benches report
// it as the architecture-independent floor against which cyclo-compaction's
// schedule lengths are judged.
#pragma once

#include <compare>
#include <string>
#include <vector>

#include "core/csdfg.hpp"

namespace ccs {

/// 128-bit integer for exact ratio arithmetic (GNU type, hence __extension__).
__extension__ typedef __int128 Int128;  // NOLINT(modernize-use-using)

/// An exact non-negative rational p/q in lowest terms.
struct Rational {
  long long num = 0;
  long long den = 1;

  [[nodiscard]] double value() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }
  [[nodiscard]] std::string to_string() const;
  /// Compares through 128-bit cross products, which cannot overflow.
  [[nodiscard]] friend std::strong_ordering operator<=>(const Rational& a,
                                                        const Rational& b) {
    return static_cast<Int128>(a.num) * b.den <=>
           static_cast<Int128>(b.num) * a.den;
  }
  [[nodiscard]] friend bool operator==(const Rational& a, const Rational& b) {
    return (a <=> b) == std::strong_ordering::equal;
  }
};

/// The maximum cycle ratio of a graph with the certificate that proves it.
struct CycleRatio {
  Rational ratio;  ///< max over cycles of t(C)/d(C); 0/1 when acyclic.
  int probes = 0;  ///< Bellman–Ford probes run, one per candidate ratio.
  /// Converged longest-path distances at ratio p/q (weights q*t(u) - p*d(e),
  /// id-order relaxation from all zeros): tight on every critical cycle.
  std::vector<Int128> potentials;
};

/// Computes the maximum cycle ratio of `g` exactly, by cycle jumping:
/// lambda = p/q starts at 0/1, and each round is one longest-path
/// Bellman–Ford probe with weights q*t(u) - p*d(e).  A cycle among the
/// predecessor edges after a pass is strictly positive at lambda, so its
/// ratio becomes the next lambda; a probe that converges proves no cycle
/// beats lambda, itself a cycle's ratio (docs/ALGORITHM.md §6).  Throws
/// GraphError if `g` is illegal (a zero-delay cycle has infinite ratio).
[[nodiscard]] CycleRatio max_cycle_ratio(const Csdfg& g);

/// The iteration bound: max_cycle_ratio(g).ratio (0/1 when acyclic).
[[nodiscard]] Rational iteration_bound(const Csdfg& g);

}  // namespace ccs
