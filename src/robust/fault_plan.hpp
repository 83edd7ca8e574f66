// ccsched — the fault model: what can break, and when.
//
// The paper's static cyclic schedules assume every processor, link, and
// task time behaves exactly as modeled.  The resilience subsystem drops
// that assumption: a FaultPlan describes fail-stop processors, dead links,
// and per-task timing jitter, parsed from a small line-oriented spec:
//
//   # comment
//   fail p2 @iter 3          # PE 2 stops executing from iteration 3 on
//   link p0 p1 @iter 5       # the p0<->p1 link drops from iteration 5 on
//   jitter C +2              # task C runs 2 steps longer than modeled
//
// Iterations are 0-based, matching the simulator; `@iter 0` (or omitting
// the clause) means "from the first iteration".  Processors are named
// `p<index>` with 0-based indices; tasks are named as in the graph file.
//
// Parsing follows the repo's two-layer convention (io/text_format.hpp):
// a lenient spec parser that records every directive with its source line
// and reports syntax problems as CCS-F001 diagnostics, plus a binding
// step that resolves names against a concrete graph + topology and
// reports resolution problems as CCS-F002.  Neither layer ever throws on
// bad input.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"

namespace ccs {

// --- Raw spec (names unresolved) -------------------------------------------

/// One `fail` directive as written.
struct RawPeFault {
  std::string pe;           ///< Processor name, e.g. "p2".
  long long iteration = 0;  ///< First affected iteration (0-based).
  std::size_t line = 0;
};

/// One `link` directive as written.
struct RawLinkFault {
  std::string a, b;         ///< Endpoint names, e.g. "p0" "p1".
  long long iteration = 0;
  std::size_t line = 0;
};

/// One `jitter` directive as written.
struct RawJitter {
  std::string task;   ///< Task name, unresolved.
  int delta = 0;      ///< Signed execution-time delta in control steps.
  std::size_t line = 0;
};

/// A fault spec, structurally parsed but unresolved.
struct FaultSpec {
  std::string file = "<faults>";
  std::vector<RawPeFault> pe_faults;
  std::vector<RawLinkFault> link_faults;
  std::vector<RawJitter> jitters;

  [[nodiscard]] bool empty() const noexcept {
    return pe_faults.empty() && link_faults.empty() && jitters.empty();
  }
};

/// Parses the fault-spec grammar leniently: directives that scan are
/// recorded verbatim; lines that do not are CCS-F001 diagnostics with
/// their source line, then skipped.  Never throws.  `filename` labels
/// the spans.
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view text,
                                         const std::string& filename,
                                         DiagnosticBag& bag);

// --- Bound plan (resolved against a graph + topology) ----------------------

/// A fail-stop processor: executes nothing from `iteration` on.
struct PeFault {
  PeId pe = 0;
  long long iteration = 0;
};

/// A dead link: carries no message whose transfer begins at or after
/// `iteration` of the consumer, in either direction.
struct LinkFault {
  PeId a = 0, b = 0;
  long long iteration = 0;
};

/// Timing jitter: task `node` executes for max(1, t(v) + delta) steps in
/// every iteration.
struct JitterFault {
  NodeId node = 0;
  int delta = 0;
};

/// A fault plan bound to one (graph, topology) pair, ready for injection
/// into the simulator (sim/executor.hpp) and the repair pass
/// (robust/repair.hpp).
struct FaultPlan {
  std::vector<PeFault> pe_faults;
  std::vector<LinkFault> link_faults;
  std::vector<JitterFault> jitters;

  [[nodiscard]] bool empty() const noexcept {
    return pe_faults.empty() && link_faults.empty() && jitters.empty();
  }

  /// True when `pe` is dead at (0-based) iteration `iter`.
  [[nodiscard]] bool pe_dead(PeId pe, long long iter) const;

  /// True when the (a,b) link is down at iteration `iter` (direction
  /// agnostic — links fail whole).
  [[nodiscard]] bool link_dead(PeId a, PeId b, long long iter) const;

  /// Execution-time delta for `node` (sum over matching jitter lines).
  [[nodiscard]] int jitter_of(NodeId node) const;

  /// Every processor that fails at any point in the plan, ascending,
  /// deduplicated — the terminal machine state the repair pass targets.
  [[nodiscard]] std::vector<PeId> dead_pes() const;

  /// Every link that fails at any point, normalized (a <= b), ascending,
  /// deduplicated.
  [[nodiscard]] std::vector<std::pair<PeId, PeId>> dead_links() const;
};

/// Resolves `spec` against `g` and `topo`: processor names must index a
/// PE of the topology, link endpoints must name an existing link, task
/// names must resolve uniquely in the graph.  Unresolvable directives
/// are CCS-F002 diagnostics and are dropped; everything else lands in
/// the returned plan.  A plan that kills every processor is legal here —
/// the repair pass reports it infeasible.
[[nodiscard]] FaultPlan bind_fault_spec(const FaultSpec& spec, const Csdfg& g,
                                        const Topology& topo,
                                        DiagnosticBag& bag);

/// One line per fault, the spec grammar round-tripped (stable order:
/// fail, link, jitter; by iteration then index).  Diagnostic aid for the
/// CLI's fault report.
[[nodiscard]] std::string describe_fault_plan(const FaultPlan& plan,
                                              const Csdfg& g);

}  // namespace ccs
