// ccsched — static lint passes over CSDFGs and architecture fit.
//
// The paper's guarantees (Theorem 4.4 monotonicity, the PSL bound of
// Lemma 4.3) hold only for well-formed inputs: a zero-delay cycle, a
// delay-starved critical cycle, or a machine too narrow for the graph
// silently produces garbage schedules or contract violations deep inside
// cyclo_compact.  The passes here diagnose those inputs *before*
// scheduling, with stable codes (rules.hpp) and source spans, so the CLI
// can reject bad inputs with actionable messages — the same discipline
// streaming-dataflow compilers apply to their task graphs.
//
// Two families:
//  * graph passes — structural well-formedness of the CSDFG alone;
//  * architecture passes — fit between the graph and a concrete topology
//    (and optional heterogeneous speed list); these only run when the
//    caller supplies a topology.
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/graph_facts.hpp"
#include "analysis/rules.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"

namespace ccs {

/// What the architecture passes lint against.  `topology == nullptr`
/// disables them (graph-only lint).
struct LintOptions {
  const Topology* topology = nullptr;
  /// Heterogeneous per-PE slowdown factors as given on the command line;
  /// empty means homogeneous.
  std::vector<int> pe_speeds;
};

/// Everything a pass may inspect; the passes share the graph's facts.
struct LintInput {
  const GraphFacts& facts;
  const SourceMap& spans;
  const LintOptions& options;
};

/// One lint pass: checks a single rule and reports every finding.
///
/// Passes are stateless const singletons; run() must be deterministic and
/// must not throw on any graph that satisfies its declared needs (a pass
/// with needs_legal_graph() may assume the zero-delay subgraph is acyclic,
/// which the runner verifies beforehand).
class LintPass {
public:
  LintPass() = default;
  LintPass(const LintPass&) = delete;
  LintPass& operator=(const LintPass&) = delete;
  virtual ~LintPass() = default;

  /// The catalogue entry this pass enforces.
  [[nodiscard]] virtual const LintRule& rule() const = 0;

  /// True for architecture passes (skipped when no topology is given).
  [[nodiscard]] virtual bool needs_architecture() const { return false; }

  /// True for passes whose analyses (iteration bound, DAG timing) require
  /// a legal graph; the runner skips them when a zero-delay cycle exists.
  [[nodiscard]] virtual bool needs_legal_graph() const { return false; }

  virtual void run(const LintInput& input, DiagnosticBag& bag) const = 0;
};

/// The registered passes, in catalogue order.
[[nodiscard]] const std::vector<const LintPass*>& lint_passes();

/// Runs every applicable pass over `input` into `bag`: graph passes
/// always, architecture passes when a topology is present, legality-
/// dependent passes only when the zero-delay subgraph is acyclic.  Does
/// not finalize the bag (callers may merge parse diagnostics first).
void run_lint_passes(const LintInput& input, DiagnosticBag& bag);

}  // namespace ccs
