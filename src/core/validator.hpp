// ccsched — schedule validation.
//
// The single master constraint (DESIGN.md §2) that a static cyclic schedule
// of length L must satisfy for every edge e : u -> v with delay k:
//
//     CB(v) + k*L  >=  CE(u) + M(PE(u), PE(v), c(e)) + 1
//
// Iteration i occupies absolute steps [i*L+1, (i+1)*L]; u's result leaves at
// the end of step CE(u), takes M steps of store-and-forward transport when
// the endpoints differ, and v of iteration i+k may start no earlier than the
// following step.  With k=0 this is the intra-iteration dependence rule; with
// k>=1 it is the inter-iteration rule from which the paper's AN (Lemma 4.2)
// and PSL (Lemma 4.3) are derived.
//
// The validator re-derives everything from first principles (it never trusts
// the scheduler's bookkeeping) and is used as the referee in tests, benches,
// and examples.
#pragma once

#include <string>
#include <vector>

#include "arch/comm_model.hpp"
#include "core/csdfg.hpp"
#include "core/schedule.hpp"

namespace ccs {

/// One broken rule, with a human-readable diagnosis.
struct Violation {
  enum class Kind {
    kUnplacedTask,       ///< A task is missing from the table.
    kOutOfTable,         ///< CB < 1 or CE > length().
    kResourceConflict,   ///< Two tasks overlap on a non-pipelined PE.
    kIssueConflict,      ///< Two tasks share an issue slot on a pipelined PE.
    kDependence,         ///< The master edge constraint fails.
    kIllegalGraph,       ///< The graph has a zero-delay cycle.
  };
  Kind kind;
  std::string message;
};

/// Outcome of validating a schedule.
struct ValidationReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  /// All messages joined with newlines (empty when ok()).
  [[nodiscard]] std::string to_string() const;
};

/// Validates `table` as a complete static cyclic schedule of `g` under
/// communication model `comm`.  Returns every violation found (never throws
/// on an invalid schedule — failure injection tests depend on the full
/// report).  The report is deterministic: violations are sorted by
/// (kind, message) and exact duplicates are dropped.
[[nodiscard]] ValidationReport validate_schedule(const Csdfg& g,
                                                 const ScheduleTable& table,
                                                 const CommModel& comm);

/// The smallest legal cyclic length for the given placements: the maximum of
/// occupied_length() and, over every inter-iteration edge (k >= 1),
/// ceil((CE(u) + M + 1 - CB(v)) / k) — the PSL bound of Lemma 4.3 in the
/// +1-consistent form (DESIGN.md §2 and §5).  Intra-iteration (k = 0) edges
/// do not depend on L; if one is violated no length works and the function
/// returns -1.  All tasks must be placed.
[[nodiscard]] int min_feasible_length(const Csdfg& g,
                                      const ScheduleTable& table,
                                      const CommModel& comm);

/// Anticipation function AN(v, pe) at `target_length` over a partial
/// table (Lemma 4.2): the earliest start step on `pe` respecting every
/// *placed* predecessor of v.  Unplaced predecessors and self-loops do not
/// constrain the start step.  Always >= 1.
[[nodiscard]] int anticipation(const Csdfg& g, const ScheduleTable& table,
                               const CommModel& comm, NodeId v, PeId pe,
                               int target_length);

/// Latest start step of v on `pe` such that every *placed* successor of v
/// still satisfies the master constraint at `target_length`, and v itself
/// fits inside the table (CE <= target_length).  May be < 1, meaning no
/// feasible step exists on that processor.
[[nodiscard]] int latest_start(const Csdfg& g, const ScheduleTable& table,
                               const CommModel& comm, NodeId v, PeId pe,
                               int target_length);

}  // namespace ccs
