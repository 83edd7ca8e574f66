#include "core/csdfg.hpp"

#include <sstream>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

NodeId Csdfg::add_node(std::string name, int time) {
  if (time < 1) {
    std::ostringstream os;
    os << "node '" << name << "': computation time must be >= 1, got " << time;
    throw GraphError(os.str());
  }
  if (name.empty())
    name = std::string("v").append(std::to_string(nodes_.size()));
  nodes_.push_back(Node{std::move(name), time});
  out_.emplace_back();
  in_.emplace_back();
  return nodes_.size() - 1;
}

EdgeId Csdfg::add_edge(NodeId from, NodeId to, int delay, std::size_t volume) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    std::ostringstream os;
    os << "edge endpoint out of range: (" << from << "," << to
       << ") with node count " << nodes_.size();
    throw GraphError(os.str());
  }
  if (delay < 0) {
    std::ostringstream os;
    os << "edge " << nodes_[from].name << "->" << nodes_[to].name
       << ": delay must be >= 0, got " << delay;
    throw GraphError(os.str());
  }
  if (volume < 1 || volume > kMaxEdgeVolume) {
    std::ostringstream os;
    os << "edge " << nodes_[from].name << "->" << nodes_[to].name
       << ": data volume ";
    if (volume < 1)
      os << "must be >= 1";
    else
      os << volume << " exceeds the " << kMaxEdgeVolume << " cap";
    throw GraphError(os.str());
  }
  if (from == to && delay == 0) {
    std::ostringstream os;
    os << "zero-delay self-loop on node '" << nodes_[from].name
       << "' is unsatisfiable";
    throw GraphError(os.str());
  }
  edges_.push_back(Edge{from, to, delay, volume});
  const EdgeId id = edges_.size() - 1;
  out_[from].push_back(id);
  in_[to].push_back(id);
  return id;
}

const Node& Csdfg::node(NodeId v) const {
  CCS_EXPECTS(v < nodes_.size());
  return nodes_[v];
}

const Edge& Csdfg::edge(EdgeId e) const {
  CCS_EXPECTS(e < edges_.size());
  return edges_[e];
}

std::span<const EdgeId> Csdfg::out_edges(NodeId v) const {
  CCS_EXPECTS(v < nodes_.size());
  return out_[v];
}

std::span<const EdgeId> Csdfg::in_edges(NodeId v) const {
  CCS_EXPECTS(v < nodes_.size());
  return in_[v];
}

NodeId Csdfg::node_by_name(const std::string& name) const {
  NodeId found = nodes_.size();
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (nodes_[v].name == name) {
      if (found != nodes_.size())
        throw GraphError("node name '" + name + "' is ambiguous");
      found = v;
    }
  }
  if (found == nodes_.size())
    throw GraphError("no node named '" + name + "'");
  return found;
}

void Csdfg::set_delay(EdgeId e, int delay) {
  CCS_EXPECTS(e < edges_.size());
  if (delay < 0) {
    std::ostringstream os;
    os << "retimed delay on edge " << nodes_[edges_[e].from].name << "->"
       << nodes_[edges_[e].to].name << " would be negative (" << delay << ")";
    throw GraphError(os.str());
  }
  if (edges_[e].from == edges_[e].to && delay == 0)
    throw GraphError("retiming would create a zero-delay self-loop on '" +
                     nodes_[edges_[e].from].name + "'");
  edges_[e].delay = delay;
}

long long Csdfg::total_computation() const noexcept {
  long long sum = 0;
  for (const auto& n : nodes_) sum += n.time;
  return sum;
}

long long Csdfg::total_delay() const noexcept {
  long long sum = 0;
  for (const auto& e : edges_) sum += e.delay;
  return sum;
}

bool Csdfg::is_legal() const {
  // Kahn's algorithm restricted to zero-delay edges: the graph is legal iff
  // the zero-delay subgraph is acyclic.
  std::vector<std::size_t> indeg(nodes_.size(), 0);
  for (const auto& e : edges_)
    if (e.delay == 0) ++indeg[e.to];
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < nodes_.size(); ++v)
    if (indeg[v] == 0) ready.push_back(v);
  std::size_t removed = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++removed;
    for (EdgeId eid : out_[v]) {
      const Edge& e = edges_[eid];
      if (e.delay == 0 && --indeg[e.to] == 0) ready.push_back(e.to);
    }
  }
  return removed == nodes_.size();
}

void Csdfg::require_legal() const {
  if (!is_legal())
    throw GraphError("CSDFG '" + name_ +
                     "' has a cycle with zero total delay (illegal: an "
                     "iteration would depend on its own future)");
}

}  // namespace ccs
