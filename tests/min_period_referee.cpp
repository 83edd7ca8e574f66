#include "min_period_referee.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "util/contracts.hpp"
#include "util/matrix.hpp"

namespace ccs::referee {

namespace {

constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

/// Difference-constraint system solved by Bellman–Ford: find x with
/// x[b] - x[a] <= w for every constraint, or report infeasible.
struct DifferenceConstraints {
  struct C {
    NodeId a, b;
    long long w;
  };
  std::size_t n;
  std::vector<C> cs;

  /// Returns a feasible assignment, or std::nullopt-like empty vector with
  /// `feasible=false`.
  bool solve(std::vector<long long>& x) const {
    x.assign(n, 0);  // virtual source with 0-weight edges to all nodes
    for (std::size_t pass = 0; pass + 1 < n + 1; ++pass) {
      bool changed = false;
      for (const C& c : cs) {
        if (x[c.a] + c.w < x[c.b]) {
          x[c.b] = x[c.a] + c.w;
          changed = true;
        }
      }
      if (!changed) return true;
    }
    for (const C& c : cs)
      if (x[c.a] + c.w < x[c.b]) return false;  // negative cycle
    return true;
  }
};

}  // namespace

MinPeriodResult min_period_retiming(const Csdfg& g) {
  g.require_legal();
  const std::size_t n = g.node_count();
  if (n == 0) return {Retiming(0), 0};

  // W(u,v): minimum total delay over nonempty paths u ~> v.
  // D(u,v): maximum total computation time (including both endpoints) over
  // minimum-delay paths u ~> v.  Computed by Floyd–Warshall over the
  // lexicographic weight (delay, -accumulated_time).
  Matrix<long long> W(n, n, kInf);
  Matrix<long long> D(n, n, std::numeric_limits<long long>::min() / 4);

  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    const long long w = e.delay;
    const long long d =
        static_cast<long long>(g.node(e.from).time) + g.node(e.to).time;
    if (w < W(e.from, e.to) || (w == W(e.from, e.to) && d > D(e.from, e.to))) {
      W(e.from, e.to) = w;
      D(e.from, e.to) = d;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (W(i, k) >= kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (W(k, j) >= kInf) continue;
        const long long w = W(i, k) + W(k, j);
        // Paths i~>k and k~>j both count t(k); subtract one copy.
        const long long d = D(i, k) + D(k, j) - g.node(k).time;
        if (w < W(i, j) || (w == W(i, j) && d > D(i, j))) {
          W(i, j) = w;
          D(i, j) = d;
        }
      }
    }
  }

  // Candidate periods: the distinct finite D values, plus the heaviest
  // single node (no period can be smaller).
  long long max_node_time = 0;
  for (NodeId v = 0; v < n; ++v)
    max_node_time = std::max(max_node_time, static_cast<long long>(g.node(v).time));
  std::set<long long> candidate_set{max_node_time};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (W(i, j) < kInf && D(i, j) >= max_node_time)
        candidate_set.insert(D(i, j));
  std::vector<long long> candidates(candidate_set.begin(),
                                    candidate_set.end());

  // Feasibility of period c: a legal retiming exists with
  //   r(v) - r(u) <= d(e)            for every edge u->v (legality), and
  //   r(v) - r(u) <= W(u,v) - 1      whenever D(u,v) > c
  // (the sign-flipped Leiserson–Saxe conditions; see header).
  auto build = [&](long long c) {
    DifferenceConstraints sys;
    sys.n = n;
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
      const Edge& e = g.edge(eid);
      sys.cs.push_back({e.from, e.to, e.delay});
    }
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t v = 0; v < n; ++v)
        if (u != v && W(u, v) < kInf && D(u, v) > c)
          sys.cs.push_back({u, v, W(u, v) - 1});
    return sys;
  };

  std::vector<long long> x;
  std::size_t lo = 0, hi = candidates.size() - 1;
  // The largest candidate is always feasible (it is at least the identity
  // retiming's period bound: with no D > c constraints, r = 0 works).
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (build(candidates[mid]).solve(x))
      hi = mid;
    else
      lo = mid + 1;
  }

  const long long best = candidates[lo];
  const bool ok = build(best).solve(x);
  CCS_ASSERT(ok);

  Retiming r(n);
  for (NodeId v = 0; v < n; ++v) r.set(v, x[v]);
  CCS_ENSURES(r.is_legal_for(g));

  Csdfg retimed = g;
  r.apply(retimed);
  const long long achieved = clock_period(retimed);
  CCS_ENSURES(achieved <= best);
  return {r, achieved};
}

}  // namespace ccs::referee
