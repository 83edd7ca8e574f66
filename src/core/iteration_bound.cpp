#include "core/iteration_bound.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace ccs {

std::string Rational::to_string() const {
  std::ostringstream os;
  os << num;
  if (den != 1) os << '/' << den;
  return os.str();
}

namespace {

constexpr EdgeId kNoPred = std::numeric_limits<EdgeId>::max();

/// An edge flattened for the probe's inner loop; `time` is t(from).
struct Arc {
  NodeId from, to;
  long long time, delay;
};

/// The largest-ratio cycle among the predecessor edges as {t(C), d(C)}, or
/// {0, 0} if they are acyclic.  Stamps each node once: O(V).
std::pair<long long, long long> best_predecessor_cycle(
    const std::vector<Arc>& arcs, const std::vector<EdgeId>& pred) {
  std::vector<std::size_t> stamp(pred.size(), 0);  // 1 + the walk's start
  long long best_t = 0, best_d = 0;
  for (NodeId start = 0; start < pred.size(); ++start) {
    NodeId v = start;
    for (; stamp[v] == 0 && pred[v] != kNoPred; v = arcs[pred[v]].from)
      stamp[v] = start + 1;
    if (stamp[v] != start + 1) continue;  // a root, or an earlier walk
    long long t = 0, d = 0;  // v lies on a cycle this walk closed
    NodeId u = v;
    do {
      t += arcs[pred[u]].time;
      d += arcs[pred[u]].delay;
      u = arcs[pred[u]].from;
    } while (u != v);
    if (best_d == 0 || Rational{t, d} > Rational{best_t, best_d}) {
      best_t = t;
      best_d = d;
    }
  }
  return {best_t, best_d};
}

}  // namespace

CycleRatio max_cycle_ratio(const Csdfg& g) {
  g.require_legal();
  std::vector<Arc> arcs(g.edge_count());
  for (EdgeId eid = 0; eid < arcs.size(); ++eid) {
    const Edge& e = g.edge(eid);
    arcs[eid] = {e.from, e.to, g.node(e.from).time, e.delay};
  }
  CycleRatio out;
  std::vector<Int128> dist(g.node_count()), weight(arcs.size());
  std::vector<EdgeId> pred(g.node_count());
  for (bool jumped = true; jumped;) {
    // One probe at lambda = p/q.  |weight| < 2^95 and a pass adds at most
    // |E| of them to a distance, so 128 bits leave ample headroom.
    ++out.probes;
    const Int128 p = out.ratio.num, q = out.ratio.den;
    for (EdgeId eid = 0; eid < arcs.size(); ++eid)
      weight[eid] = q * arcs[eid].time - p * arcs[eid].delay;
    std::fill(dist.begin(), dist.end(), 0);
    std::fill(pred.begin(), pred.end(), kNoPred);
    jumped = false;
    while (!jumped) {
      bool changed = false;
      for (EdgeId eid = 0; eid < arcs.size(); ++eid) {
        const Int128 reach = dist[arcs[eid].from] + weight[eid];
        if (reach > dist[arcs[eid].to]) {
          dist[arcs[eid].to] = reach;
          pred[arcs[eid].to] = eid;
          changed = true;
        }
      }
      if (!changed) break;  // converged: no cycle beats lambda
      // A predecessor cycle is strictly positive at lambda: each edge was
      // tight when set, its tail has only risen since, and the edge that
      // closed it strictly improved.  So its ratio beats lambda.
      const auto [t, d] = best_predecessor_cycle(arcs, pred);
      if (d == 0) continue;
      CCS_ASSERT(q * t > p * d);
      out.ratio = Rational{t / std::gcd(t, d), d / std::gcd(t, d)};
      jumped = true;
    }
  }
  out.potentials = std::move(dist);
  return out;
}

Rational iteration_bound(const Csdfg& g) { return max_cycle_ratio(g).ratio; }

}  // namespace ccs
