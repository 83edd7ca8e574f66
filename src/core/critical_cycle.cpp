#include "core/critical_cycle.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/contracts.hpp"

namespace ccs {

Rational CycleWitness::ratio() const {
  if (total_delay == 0) return Rational{0, 1};
  const long long g = std::gcd(total_time, total_delay);
  return Rational{total_time / g, total_delay / g};
}

CycleWitness critical_cycle(const Csdfg& g) {
  const CycleRatio mcr = max_cycle_ratio(g);
  const Rational bound = mcr.ratio;
  if (bound.num == 0) return {};  // acyclic

  // Tight subgraph over the converging probe's potentials at ratio B:
  // every critical cycle's edges satisfy pot[to] == pot[from] + w, and
  // every cycle of tight edges is critical.
  const Int128 p = bound.num, q = bound.den;
  const std::vector<Int128>& pot = mcr.potentials;
  const std::size_t n = g.node_count();
  std::vector<std::vector<EdgeId>> tight(n);
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    if (pot[e.from] + q * g.node(e.from).time - p * e.delay == pot[e.to])
      tight[e.from].push_back(eid);
  }

  // Iterative DFS for a cycle in the tight subgraph.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<EdgeId> via(n, 0);  // tight edge used to enter the node

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
          // Found a cycle: unwind from u back to w along the DFS tree.
          CycleWitness cycle;
          cycle.edges.push_back(eid);
          for (NodeId cur = u; cur != w; cur = g.edge(via[cur]).from)
            cycle.edges.push_back(via[cur]);
          std::reverse(cycle.edges.begin(), cycle.edges.end());
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

std::string describe_cycle(const Csdfg& g, const CycleWitness& cycle) {
  if (cycle.edges.empty()) return "(acyclic)";
  std::ostringstream os;
  for (const EdgeId eid : cycle.edges)
    os << g.node(g.edge(eid).from).name << " -> ";
  os << g.node(g.edge(cycle.edges.front()).from).name;
  os << " (t=" << cycle.total_time << ", d=" << cycle.total_delay
     << ", ratio " << cycle.ratio().to_string() << ")";
  return os.str();
}

}  // namespace ccs
