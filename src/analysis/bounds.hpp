// ccsched — static lower-bound analyses over (graph, machine).
//
// The cyclo-compaction loop (and the portfolio around it) reports "best
// schedule found", but never how far from optimal that is.  This module
// derives a family of *sound* static lower bounds on the length of any
// valid static cyclic schedule of a CSDFG on a concrete machine — each one
// provable directly from the master constraint the validator enforces
// (core/validator.cpp) — and packages every bound as a stable CCS-B
// diagnostic with a witness that re-derives the value.
//
// Two composites matter, because "sound" is relative to what the schedule
// is allowed to do:
//
//  * CompositeBound::value — the max over passes whose derivation survives
//    ANY legal retiming of the graph.  Cyclo-compaction retimes before it
//    schedules, so only these passes may prune portfolio attempts, feed
//    the Solver's {lower_bound, gap, optimal} fields, or claim optimality.
//    Invariant passes only use retiming-invariant quantities: task times,
//    totals, per-cycle delay sums, data volumes, node/edge counts.
//
//  * CompositeBound::local_value — the max over ALL passes, sound for the
//    graph exactly as given (its current delay placement).  The certifier
//    uses it (CCS-S015): a certified table of THIS graph that beats
//    local_value exposes a first-principles bug in either derivation.
//
// Passes (see docs/DIAGNOSTICS.md for the catalogue prose):
//   CCS-B001  ceil'd iteration bound, critical-cycle witness.
//   CCS-B002  speed-aware work conservation per heterogeneous speed class
//             + longest-task floor.
//   CCS-B003  pipelined-issue bound ceil(n/P).
//   CCS-B004  communication-aware critical-cycle bound: the cycle either
//             serializes on one PE or pays >= 2 cheapest transfers per
//             delay window.
//   CCS-B005  topology cut bound (store-and-forward latency form); NOT
//             retiming-invariant (uses per-edge delay windows) — local
//             composite only.
//   CCS-B006  retiming-feasibility bound: s_min × the minimum achievable
//             clock period over all legal retimings (d_r(e) >= 0).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/graph_facts.hpp"
#include "analysis/rules.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"

namespace ccs {

/// The machine a bound is computed against — the same facts the validator
/// checks a table with, decoupled from how the caller obtained them
/// (Topology + options, or an already-built ScheduleTable).
struct BoundMachine {
  /// Number of processing elements, >= 1.
  std::size_t num_pes = 1;
  /// Per-PE slowdown factors (>= 1); empty means homogeneous speed 1.
  /// When non-empty the size must equal num_pes.
  std::vector<int> speeds;
  /// Pipelined PEs: a task occupies only its issue step.
  bool pipelined = false;
  /// Communication model; nullptr makes CCS-B004 price transfers at zero
  /// (conservative, still sound) and disables CCS-B005 entirely (its
  /// per-edge delay windows would be unknowable).
  const CommModel* comm = nullptr;

  /// Slowdown factor of PE `pe` (1 when speeds is empty).
  [[nodiscard]] int speed(std::size_t pe) const {
    return speeds.empty() ? 1 : speeds[pe];
  }
  /// The fastest (smallest) slowdown factor on the machine.
  [[nodiscard]] int min_speed() const;
};

/// Builds the BoundMachine the portfolio/solver analyze against from the
/// caller-facing knobs: topology size, the startup speed list, and the
/// pipelined flag of `options`.
[[nodiscard]] BoundMachine machine_view(const Topology& topo,
                                        const CommModel& comm,
                                        const CycloCompactionOptions& options);

/// The machine `table` was built for, priced by `comm`.
[[nodiscard]] BoundMachine machine_view(const ScheduleTable& table,
                                        const CommModel& comm);

/// One pass's result: a proven lower bound with its derivation.
struct BoundResult {
  /// Catalogue code ("CCS-B001", ...).
  std::string_view code;
  /// The proven floor: every valid schedule has length() >= value.
  int value = 0;
  /// True when the derivation holds for EVERY legal retiming of the graph
  /// (and thus for schedules cyclo-compaction produces after retiming).
  bool invariant = false;
  /// Human-readable derivation, e.g. the critical cycle and its totals.
  std::string witness;
  /// Machine-checkable witness payload; reverify() re-derives `value`
  /// from it.  Layout is pass-specific and documented in bounds.cpp.
  std::vector<long long> data;
};

/// One static lower-bound pass.  Stateless const singleton; run() must be
/// deterministic and assumes a LEGAL graph (callers gate on is_legal()).
class BoundPass {
public:
  BoundPass() = default;
  BoundPass(const BoundPass&) = delete;
  BoundPass& operator=(const BoundPass&) = delete;
  virtual ~BoundPass() = default;

  /// The catalogue entry this pass reports under.
  [[nodiscard]] virtual const LintRule& rule() const = 0;

  /// Computes the bound over `facts.graph()`, or nullopt when the pass
  /// does not apply (acyclic graph for the cycle passes, non-pipelined
  /// machine for CCS-B003, no comm model for the communication passes).
  [[nodiscard]] virtual std::optional<BoundResult> run(
      const GraphFacts& facts, const BoundMachine& machine) const = 0;

  /// Re-derives `result.value` from its own witness payload against the
  /// same graph and machine; false means the witness does not support the
  /// claimed value (a first-principles bug, surfaced as CCS-S015).  Reads
  /// no facts memo: CCS-B006 re-runs the retiming itself.
  [[nodiscard]] virtual bool reverify(const Csdfg& g,
                                      const BoundMachine& machine,
                                      const BoundResult& result) const = 0;
};

/// The registered passes, in catalogue (CCS-B code) order.
[[nodiscard]] const std::vector<const BoundPass*>& bound_passes();

/// All applicable bounds over one (graph, machine), plus the two maxima.
struct CompositeBound {
  /// Max over retiming-invariant passes — sound for any schedule of any
  /// legal retiming of the graph.  >= 1 for non-empty graphs.
  int value = 0;
  /// Max over all passes — sound for the graph's exact delay placement.
  /// Always >= value.
  int local_value = 0;
  /// Code of a pass attaining `value` (lowest code wins ties); empty when
  /// no pass applied.
  std::string_view dominant;
  /// Code of a pass attaining `local_value`.
  std::string_view dominant_local;
  /// Every applicable pass's result, in catalogue order.
  std::vector<BoundResult> parts;

  /// The part reported under `code`, or nullptr if the pass did not apply.
  [[nodiscard]] const BoundResult* part(std::string_view code) const;
};

/// Runs every applicable pass: a fold over the graph's facts (CCS-B001 and
/// B004 share its critical cycle, B006 reads its Φ_min), built on first
/// use.  The graph must be legal (throws GraphError otherwise).
[[nodiscard]] CompositeBound compute_bounds(const GraphFacts& facts,
                                            const BoundMachine& machine);

/// Convenience overload: machine_view(topo, comm, options) first.
[[nodiscard]] CompositeBound compute_bounds(
    const GraphFacts& facts, const Topology& topo, const CommModel& comm,
    const CycloCompactionOptions& options);

/// Emits one kNote diagnostic per part (anchored at `span`), in catalogue
/// order, each carrying the bound value and witness text.  Does not
/// finalize the bag.
void report_bounds(const CompositeBound& composite, const SourceSpan& span,
                   DiagnosticBag& bag);

}  // namespace ccs
