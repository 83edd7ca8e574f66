#include "cycle_ratio_referee.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/contracts.hpp"

namespace ccs::referee {

bool has_cycle_ratio_above(const Csdfg& g, long long p, long long q) {
  CCS_EXPECTS(q > 0);
  const std::size_t n = g.node_count();
  if (n == 0) return false;

  // Longest-path Bellman–Ford from a virtual source connected to all nodes
  // with weight 0; a relaxation still possible after n passes certifies a
  // positive cycle, i.e. a cycle with q*sum(t) - p*sum(d) > 0, i.e. ratio
  // sum(t)/sum(d) > p/q.
  std::vector<long long> dist(n, 0);
  for (std::size_t pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
      const Edge& e = g.edge(eid);
      const long long w = q * static_cast<long long>(g.node(e.from).time) -
                          p * static_cast<long long>(e.delay);
      if (dist[e.from] + w > dist[e.to]) {
        dist[e.to] = dist[e.from] + w;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

Rational iteration_bound(const Csdfg& g) {
  g.require_legal();
  if (g.node_count() == 0) return Rational{0, 1};

  if (!has_cycle_ratio_above(g, 0, 1)) {
    // Every cycle has positive computation time, so "ratio > 0" fails only
    // when there is no cycle at all: the graph is acyclic.
    return Rational{0, 1};
  }

  // B is T_C / D_C for some simple cycle C, so its denominator is at most
  // min(total delay, |V| * max edge delay).  For each candidate denominator
  // q, the smallest p with NOT(B > p/q) gives the least fraction >= B with
  // that denominator; the minimum over q is exactly B (attained when q is a
  // multiple of B's reduced denominator).
  const long long total_t = g.total_computation();
  long long max_edge_delay = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    max_edge_delay =
        std::max(max_edge_delay, static_cast<long long>(g.edge(e).delay));
  const long long max_den =
      std::min(g.total_delay(),
               static_cast<long long>(g.node_count()) * max_edge_delay);
  CCS_ASSERT(max_den >= 1);

  Rational best{total_t + 1, 1};  // strictly above any possible bound
  for (long long q = 1; q <= max_den; ++q) {
    // Binary search the least p in [1, total_t * q] with !above(p, q).
    long long lo = 1, hi = total_t * q;
    // above(hi, q) is false: no cycle ratio exceeds total_t.
    while (lo < hi) {
      const long long mid = (lo + hi) / 2;
      if (has_cycle_ratio_above(g, mid, q))
        lo = mid + 1;
      else
        hi = mid;
    }
    const Rational cand{lo, q};
    if (cand < best) best = cand;
  }
  const long long gcd = std::gcd(best.num, best.den);
  CCS_ENSURES(best.num >= 1 && best.num <= total_t);
  return Rational{best.num / gcd, best.den / gcd};
}

CycleWitness critical_cycle(const Csdfg& g) {
  const Rational bound = referee::iteration_bound(g);
  if (bound.num == 0) return {};  // acyclic

  const long long p = bound.num, q = bound.den;
  const std::size_t n = g.node_count();
  auto weight = [&](EdgeId eid) {
    const Edge& e = g.edge(eid);
    return q * static_cast<long long>(g.node(e.from).time) -
           p * static_cast<long long>(e.delay);
  };

  // Longest paths from a virtual source; converges because no cycle is
  // positive at ratio B.
  std::vector<long long> dist(n, 0);
  for (std::size_t pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
      const Edge& e = g.edge(eid);
      if (dist[e.from] + weight(eid) > dist[e.to]) {
        dist[e.to] = dist[e.from] + weight(eid);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Tight subgraph: every critical cycle's edges satisfy
  // dist[to] == dist[from] + w, and every cycle of tight edges is critical.
  std::vector<std::vector<EdgeId>> tight(n);
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    if (dist[e.from] + weight(eid) == dist[e.to])
      tight[e.from].push_back(eid);
  }

  // Iterative DFS for a cycle in the tight subgraph.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<EdgeId> via(n, 0);      // tight edge used to enter the node
  std::vector<NodeId> parent(n, 0);   // DFS tree parent

  for (NodeId root = 0; root < n; ++root) {
    if (color[root] != Color::kWhite) continue;
    // (node, next edge index) stack.
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    color[root] = Color::kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < tight[u].size()) {
        const EdgeId eid = tight[u][idx++];
        const NodeId w = g.edge(eid).to;
        if (color[w] == Color::kGray) {
          // Found a cycle: unwind from u back to w.
          CycleWitness cycle;
          std::vector<EdgeId> rev{eid};
          NodeId cur = u;
          while (cur != w) {
            rev.push_back(via[cur]);
            cur = parent[cur];
          }
          std::reverse(rev.begin(), rev.end());
          cycle.edges = rev;
          for (EdgeId ce : cycle.edges) {
            cycle.total_time += g.node(g.edge(ce).from).time;
            cycle.total_delay += g.edge(ce).delay;
          }
          CCS_ENSURES(cycle.ratio() == bound);
          return cycle;
        }
        if (color[w] == Color::kWhite) {
          color[w] = Color::kGray;
          via[w] = eid;
          parent[w] = u;
          stack.push_back({w, 0});
        }
      } else {
        color[u] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  CCS_ASSERT(false);  // a cyclic graph always has a tight cycle
  return {};
}

}  // namespace ccs::referee
