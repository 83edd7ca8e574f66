#include "core/graph_algo.hpp"

#include <algorithm>
#include <queue>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

std::vector<NodeId> zero_delay_topological_order(const Csdfg& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v)
    for (EdgeId eid : g.in_edges(v))
      if (g.edge(eid).delay == 0) ++indeg[v];

  // Min-heap on node id for a deterministic order.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; v < n; ++v)
    if (indeg[v] == 0) ready.push(v);

  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (EdgeId eid : g.out_edges(v)) {
      const Edge& e = g.edge(eid);
      if (e.delay == 0 && --indeg[e.to] == 0) ready.push(e.to);
    }
  }
  if (order.size() != n)
    throw GraphError("CSDFG '" + g.name() +
                     "' has a zero-delay cycle; no topological order exists");
  return order;
}

DagTiming compute_dag_timing(const Csdfg& g) {
  const auto order = zero_delay_topological_order(g);
  const std::size_t n = g.node_count();

  DagTiming t;
  t.asap_cb.assign(n, 1);
  for (NodeId v : order) {
    for (EdgeId eid : g.out_edges(v)) {
      const Edge& e = g.edge(eid);
      if (e.delay != 0) continue;
      t.asap_cb[e.to] = std::max<long long>(t.asap_cb[e.to],
                                            t.asap_cb[v] + g.node(v).time);
    }
  }

  t.critical_path = 0;
  for (NodeId v = 0; v < n; ++v)
    t.critical_path = std::max<long long>(t.critical_path,
                                          t.asap_cb[v] - 1 + g.node(v).time);

  t.alap_cb.assign(n, 0);
  for (NodeId v = 0; v < n; ++v)
    t.alap_cb[v] = t.critical_path - g.node(v).time + 1;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    for (EdgeId eid : g.out_edges(v)) {
      const Edge& e = g.edge(eid);
      if (e.delay != 0) continue;
      t.alap_cb[v] =
          std::min<long long>(t.alap_cb[v], t.alap_cb[e.to] - g.node(v).time);
    }
  }

  for (NodeId v = 0; v < n; ++v) CCS_ENSURES(t.alap_cb[v] >= t.asap_cb[v]);
  return t;
}

std::vector<NodeId> zero_delay_roots(const Csdfg& g) {
  std::vector<NodeId> roots;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    bool has_zero_in = false;
    for (EdgeId eid : g.in_edges(v))
      if (g.edge(eid).delay == 0) {
        has_zero_in = true;
        break;
      }
    if (!has_zero_in) roots.push_back(v);
  }
  return roots;
}

bool weakly_connected(const Csdfg& g) {
  if (g.node_count() <= 1) return true;
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    const auto visit = [&](NodeId y) {
      if (!seen[y]) {
        seen[y] = true;
        ++reached;
        stack.push_back(y);
      }
    };
    for (EdgeId eid : g.out_edges(x)) visit(g.edge(eid).to);
    for (EdgeId eid : g.in_edges(x)) visit(g.edge(eid).from);
  }
  return reached == g.node_count();
}

bool zero_delay_reachable(const Csdfg& g, NodeId u, NodeId v) {
  CCS_EXPECTS(u < g.node_count() && v < g.node_count());
  std::vector<bool> seen(g.node_count(), false);
  std::vector<NodeId> stack{u};
  seen[u] = true;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    if (x == v) return true;
    for (EdgeId eid : g.out_edges(x)) {
      const Edge& e = g.edge(eid);
      if (e.delay == 0 && !seen[e.to]) {
        seen[e.to] = true;
        stack.push_back(e.to);
      }
    }
  }
  return false;
}

}  // namespace ccs
