#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "analysis/canon.hpp"
#include "util/contracts.hpp"

namespace ccs {

namespace {

const LintRule& rule_or_die(std::string_view code) {
  const LintRule* r = find_rule(code);
  CCS_EXPECTS(r != nullptr);
  return *r;
}

/// CCS-G001: every cycle must carry at least one delay.  Reports one
/// witness cycle (names and the smallest involved source line) rather than
/// the bare boolean require_legal() gives.
class ZeroDelayCyclePass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-G001");
  }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const Csdfg& g = input.facts.graph();
    if (g.is_legal()) return;
    // Iterative DFS over the zero-delay subgraph; the first back edge to a
    // node still on the stack closes a witness cycle.
    enum : char { kWhite, kGray, kBlack };
    std::vector<char> color(g.node_count(), kWhite);
    std::vector<std::size_t> next(g.node_count(), 0);
    std::vector<NodeId> stack;
    std::vector<EdgeId> stack_edges;  // stack_edges[i] enters stack[i + 1].
    for (NodeId root = 0; root < g.node_count(); ++root) {
      if (color[root] != kWhite) continue;
      stack.assign(1, root);
      stack_edges.clear();
      color[root] = kGray;
      while (!stack.empty()) {
        const NodeId u = stack.back();
        bool advanced = false;
        while (next[u] < g.out_edges(u).size()) {
          const EdgeId eid = g.out_edges(u)[next[u]++];
          const Edge& e = g.edge(eid);
          if (e.delay != 0) continue;
          if (color[e.to] == kGray) {
            report_cycle(input, bag, g, stack, stack_edges, e.to, eid);
            return;
          }
          if (color[e.to] == kWhite) {
            color[e.to] = kGray;
            stack.push_back(e.to);
            stack_edges.push_back(eid);
            advanced = true;
            break;
          }
        }
        if (!advanced) {
          color[u] = kBlack;
          stack.pop_back();
          if (!stack_edges.empty()) stack_edges.pop_back();
        }
      }
    }
    CCS_ASSERT(false);  // !is_legal() guarantees the DFS finds a cycle.
  }

private:
  static void report_cycle(const LintInput& input, DiagnosticBag& bag,
                           const Csdfg& g, const std::vector<NodeId>& stack,
                           const std::vector<EdgeId>& stack_edges,
                           NodeId entry, EdgeId closing_edge) {
    std::size_t first = 0;
    while (stack[first] != entry) ++first;
    std::vector<EdgeId> cycle_edges(stack_edges.begin() +
                                        static_cast<std::ptrdiff_t>(first),
                                    stack_edges.end());
    cycle_edges.push_back(closing_edge);
    std::ostringstream cycle;
    std::size_t line = 0;
    for (std::size_t i = first; i < stack.size(); ++i)
      cycle << g.node(stack[i]).name << " -> ";
    cycle << g.node(entry).name;
    for (const EdgeId e : cycle_edges) {
      const SourceSpan span = input.spans.edge_span(e);
      if (line == 0 || (span.line > 0 && span.line < line)) line = span.line;
    }
    bag.add("CCS-G001", {input.spans.file, line},
            "zero-delay cycle " + cycle.str() +
                ": an iteration would depend on its own future");
  }
};

/// CCS-G006: repeated (from, to, delay) triples.
class DuplicateEdgePass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-G006");
  }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const Csdfg& g = input.facts.graph();
    std::map<std::tuple<NodeId, NodeId, int>, EdgeId> seen;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& edge = g.edge(e);
      const auto key = std::make_tuple(edge.from, edge.to, edge.delay);
      const auto [it, inserted] = seen.emplace(key, e);
      if (inserted) continue;
      std::ostringstream os;
      os << "duplicate edge " << g.node(edge.from).name << " -> "
         << g.node(edge.to).name << " with delay " << edge.delay
         << " (first declared on line "
         << input.spans.edge_span(it->second).line << ')';
      bag.add("CCS-G006", input.spans.edge_span(e), os.str());
    }
  }
};

/// CCS-G007: nodes with no incident edges.
class IsolatedNodePass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-G007");
  }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const Csdfg& g = input.facts.graph();
    if (g.node_count() < 2) return;  // A single node is a complete program.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!g.out_edges(v).empty() || !g.in_edges(v).empty()) continue;
      bag.add("CCS-G007", input.spans.node_span(v),
              "node '" + g.node(v).name +
                  "' has no incident edges; it constrains nothing");
    }
  }
};

/// CCS-N002: the graph has interchangeable tasks (a nontrivial
/// automorphism group); surfaces the orbit partition so symmetry-aware
/// search can pin one representative per orbit (analysis/canon.hpp).
class AutomorphismGroupPass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-N002");
  }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const CanonResult canon = canonicalize(input.facts.graph());
    if (canon.automorphism_count <= 1) return;
    std::ostringstream os;
    os << "the graph has " << canon.automorphism_count
       << (canon.complete ? "" : "+")
       << " attribute-preserving automorphisms; interchangeable task "
          "orbits: "
       << orbit_summary(input.facts.graph(), canon);
    bag.add("CCS-N002", input.spans.file_span(), os.str());
  }
};

/// CCS-G008: the critical cycle carries a single delay and its computation
/// time already reaches the critical path — the iteration bound equals the
/// whole recurrence time, so no retiming or remapping can improve the
/// schedule; only deeper delays (c-slowdown) or faster tasks can.
class DelayStarvedCyclePass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-G008");
  }
  [[nodiscard]] bool needs_legal_graph() const override { return true; }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const Csdfg& g = input.facts.graph();
    const CycleWitness& cycle = input.facts.critical_cycle();
    if (cycle.edges.empty() || cycle.total_delay != 1) return;
    if (cycle.total_time < input.facts.dag_timing().critical_path) return;
    // Point at the edge carrying the cycle's single delay.
    SourceSpan span = input.spans.file_span();
    for (const EdgeId e : cycle.edges)
      if (g.edge(e).delay > 0) span = input.spans.edge_span(e);
    bag.add("CCS-G008", span,
            "delay-starved critical cycle " + describe_cycle(g, cycle) +
                ": a single delay serializes the whole recurrence every "
                "iteration");
  }
};

/// Ceiling division for non-negative values.
long long ceil_div(long long a, long long b) { return (a + b - 1) / b; }

/// CCS-A001: zero-delay DAG width vs. processor count.
class InsufficientProcessorsPass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-A001");
  }
  [[nodiscard]] bool needs_architecture() const override { return true; }
  [[nodiscard]] bool needs_legal_graph() const override { return true; }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const Csdfg& g = input.facts.graph();
    const Topology& topo = *input.options.topology;
    if (g.node_count() == 0) return;
    // Width proxy: the largest set of tasks sharing an ASAP control step.
    const DagTiming& timing = input.facts.dag_timing();
    std::map<long long, std::size_t> per_step;
    std::size_t width = 0;
    for (NodeId v = 0; v < g.node_count(); ++v)
      width = std::max(width, ++per_step[timing.asap_cb[v]]);
    if (width <= topo.size()) return;
    std::ostringstream os;
    os << "the zero-delay DAG schedules up to " << width
       << " tasks in one control step but " << topo.name() << " has only "
       << topo.size() << " processors";
    bag.add("CCS-A001", input.spans.file_span(), os.str());
  }
};

/// CCS-A002: the hop-distance×volume PSL pre-check.  The projected
/// schedule length is the best any scheduler can hope for:
/// max(zero-delay critical path, ceil(iteration bound), ceil(total t / P)).
/// An edge whose volume reaches it cannot complete even a one-hop transfer
/// within one iteration period (store-and-forward costs hops × volume), so
/// its endpoints are effectively pinned to one processor.
class OversizedCommunicationPass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-A002");
  }
  [[nodiscard]] bool needs_architecture() const override { return true; }
  [[nodiscard]] bool needs_legal_graph() const override { return true; }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const Csdfg& g = input.facts.graph();
    const Topology& topo = *input.options.topology;
    if (topo.size() < 2 || g.node_count() == 0) return;
    const Rational bound = input.facts.iteration_bound();
    const long long projected = std::max<long long>(
        {input.facts.dag_timing().critical_path,
         ceil_div(bound.num, bound.den),
         ceil_div(g.total_computation(),
                  static_cast<long long>(topo.size()))});
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& edge = g.edge(e);
      if (static_cast<long long>(edge.volume) < projected) continue;
      std::ostringstream os;
      os << "edge " << g.node(edge.from).name << " -> "
         << g.node(edge.to).name << ": volume " << edge.volume
         << " cannot cross even one link within the projected schedule "
            "length "
         << projected << "; the endpoints are pinned to one processor";
      bag.add("CCS-A002", input.spans.edge_span(e), os.str());
    }
  }
};

/// CCS-A003: heterogeneous speed list fit.
class SpeedListMismatchPass final : public LintPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return rule_or_die("CCS-A003");
  }
  [[nodiscard]] bool needs_architecture() const override { return true; }

  void run(const LintInput& input, DiagnosticBag& bag) const override {
    const std::vector<int>& speeds = input.options.pe_speeds;
    const Topology& topo = *input.options.topology;
    if (speeds.empty()) return;
    if (speeds.size() != topo.size()) {
      std::ostringstream os;
      os << "speed list has " << speeds.size() << " factor(s) but "
         << topo.name() << " has " << topo.size() << " processors";
      bag.add("CCS-A003", input.spans.file_span(), os.str());
    }
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      if (speeds[i] >= 1) continue;
      std::ostringstream os;
      os << "speed factor " << speeds[i] << " for processor " << i + 1
         << " must be >= 1";
      bag.add("CCS-A003", input.spans.file_span(), os.str());
    }
  }
};

}  // namespace

const std::vector<const LintPass*>& lint_passes() {
  static const ZeroDelayCyclePass zero_delay_cycle;
  static const DuplicateEdgePass duplicate_edge;
  static const IsolatedNodePass isolated_node;
  static const DelayStarvedCyclePass delay_starved;
  static const InsufficientProcessorsPass insufficient_processors;
  static const OversizedCommunicationPass oversized_communication;
  static const SpeedListMismatchPass speed_list_mismatch;
  static const AutomorphismGroupPass automorphism_group;
  static const std::vector<const LintPass*> passes{
      &zero_delay_cycle,     &duplicate_edge,
      &isolated_node,        &delay_starved,
      &insufficient_processors, &oversized_communication,
      &speed_list_mismatch,  &automorphism_group,
  };
  return passes;
}

void run_lint_passes(const LintInput& input, DiagnosticBag& bag) {
  const bool legal = input.facts.graph().is_legal();
  const bool has_arch = input.options.topology != nullptr;
  for (const LintPass* pass : lint_passes()) {
    if (pass->needs_architecture() && !has_arch) continue;
    if (pass->needs_legal_graph() && !legal) continue;
    pass->run(input, bag);
  }
}

}  // namespace ccs
