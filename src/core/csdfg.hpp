// ccsched — communication-sensitive data-flow graphs.
//
// Section 2 of the paper: a CSDFG G = (V, E, d, t, c) is a node- and
// edge-weighted directed graph where
//   * t : V -> Z+  is the computation time of each task,
//   * d : E -> Z>=0 counts the loop-carried delays on a dependence edge
//     (an edge u->v with d(e)=k means iteration j of v consumes the value
//     produced by iteration j-k of u; k=0 is an intra-iteration dependence),
//   * c : E -> Z+  is the data volume shipped when the endpoints execute on
//     different processors.
// A legal CSDFG has strictly positive total delay around every cycle —
// otherwise an iteration would depend on its own future.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ccs {

/// Identifier of a task node; nodes are numbered 0 .. node_count()-1 in
/// insertion order.
using NodeId = std::size_t;

/// Identifier of a dependence edge; edges are numbered 0 .. edge_count()-1 in
/// insertion order.
using EdgeId = std::size_t;

/// A computational task.
struct Node {
  std::string name;  ///< Human-readable label ("A", "mul3", ...).
  int time = 1;      ///< Computation time t(v) in control steps, >= 1.
};

/// A dependence between two tasks.
struct Edge {
  NodeId from = 0;         ///< Producer task u.
  NodeId to = 0;           ///< Consumer task v.
  int delay = 0;           ///< Loop-carried delay count d(e), >= 0.
  std::size_t volume = 1;  ///< Data volume c(e) shipped across PEs, >= 1.
};

/// Largest data volume c(e) an edge may carry.  One hop of a larger
/// transfer outlasts the longest table the toolkit builds
/// (kMaxScheduleLength, core/schedule.hpp), and the cap keeps every
/// hops × c(e) product and the start-up scheduler's step budget (a sum of
/// diameter × c(e) over the edges) far inside 64 bits.
inline constexpr std::size_t kMaxEdgeVolume = 1'000'000;

/// A communication-sensitive data-flow graph.
///
/// The structure (nodes, edge endpoints, times, volumes) is immutable after
/// insertion; edge *delays* are mutable because retiming — the engine behind
/// the paper's rotation phase — redistributes them.  Use Retiming::apply (or
/// set_delay for tests) to change them; both enforce non-negativity.
///
/// Parallel edges and self-loops with positive delay are permitted (a
/// self-loop models a task depending on its own previous iteration).
class Csdfg {
public:
  Csdfg() = default;

  /// Creates a named graph (name appears in reports and DOT output).
  explicit Csdfg(std::string name) : name_(std::move(name)) {}

  /// Adds a task with computation time `time` (>= 1, enforced).  If `name`
  /// is empty a name is synthesized from the node index.  Returns the new
  /// node's id.
  NodeId add_node(std::string name, int time);

  /// Adds a dependence edge u -> v with `delay` loop-carried delays (>= 0)
  /// and inter-processor data volume `volume` (in [1, kMaxEdgeVolume]),
  /// throwing GraphError otherwise.  Zero-delay self-loops
  /// are rejected (they would be an unsatisfiable dependence).  Returns the
  /// new edge's id.
  EdgeId add_edge(NodeId from, NodeId to, int delay, std::size_t volume = 1);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }

  [[nodiscard]] const Node& node(NodeId v) const;
  [[nodiscard]] const Edge& edge(EdgeId e) const;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Ids of edges leaving `v`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId v) const;

  /// Ids of edges entering `v`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId v) const;

  /// Looks up a node by name; throws GraphError if absent or ambiguous.
  [[nodiscard]] NodeId node_by_name(const std::string& name) const;

  /// Overwrites the delay of edge `e` (must stay >= 0; zero-delay self-loops
  /// remain rejected).  Intended for Retiming::apply and for tests.
  void set_delay(EdgeId e, int delay);

  /// Total computation time over all nodes.
  [[nodiscard]] long long total_computation() const noexcept;

  /// Total delay count over all edges.
  [[nodiscard]] long long total_delay() const noexcept;

  /// True iff every cycle carries at least one delay, i.e. the zero-delay
  /// subgraph is acyclic.  (Delays are non-negative, so this is exactly the
  /// paper's "strictly positive delay cycles" legality condition.)
  [[nodiscard]] bool is_legal() const;

  /// Throws GraphError with a diagnostic if !is_legal().
  void require_legal() const;

private:
  std::string name_ = "csdfg";
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace ccs
