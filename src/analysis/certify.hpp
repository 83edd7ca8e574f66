// ccsched — the schedule certifier.
//
// The core validator (core/validator.hpp) referees in-memory tables for
// tests and benches.  The certifier is the *independent* audit layer on
// top: it re-derives every property of a schedule from the master
// constraint
//
//     CB(v) + k*L  >=  CE(u) + M(PE(u), PE(v), c(e)) + 1
//
// without trusting the scheduler's bookkeeping — or even the strict
// parser's, since it works from the raw file representation
// (io/schedule_format.hpp) that survives overlapping placements and
// undersized lengths.  Findings are coded CCS-S### diagnostics
// (rules.hpp, docs/DIAGNOSTICS.md) rendered through the same text / JSONL
// / SARIF pipeline as the linter, with spans pointing at the offending
// `place` / `retime` / `schedule` lines.
//
// Beyond the validator's checks it audits properties only visible at the
// run level: retiming legality (d(e) = d_r(e) - r(u) + r(v) >= 0),
// Theorem 4.4 monotonicity for without-relaxation runs, claimed-vs-
// recomputed result bookkeeping, an unfold-equivalence cross-check
// (a cyclic table is valid iff the flat schedule it induces on the
// f-unfolded graph is), and replay verification of recorded obs/ traces.
//
// Every entry point appends into a DiagnosticBag and returns true iff it
// added no error-severity findings; callers finalize() the bag once and
// render it.
#pragma once

#include <string>

#include "analysis/diagnostics.hpp"
#include "analysis/graph_facts.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/schedule.hpp"
#include "io/schedule_format.hpp"

namespace ccs {

/// Knobs of the certifier.
struct CertifyOptions {
  /// Unfolding factor for the translation-validation cross-check
  /// (CCS-S011): the certifier rebuilds the schedule on the f-unfolded
  /// graph and validates the result independently.  < 2 disables the
  /// check.  It only runs once every other check passed — on a schedule
  /// already known bad it would re-report the same defects.
  int unfold_factor = 3;
};

/// One `place` directive resolved against its graph.
struct ResolvedPlacement {
  NodeId v = 0;
  std::size_t pe = 0;    ///< 0-based processor.
  int cb = 0;            ///< First control step, unchecked.
  std::size_t line = 0;  ///< Declaring line; 0 for an in-memory table.
};

/// A raw schedule with its names resolved.
struct ResolvedSchedule {
  /// The first placement of each task that resolved, in file order.
  std::vector<ResolvedPlacement> places;
  /// r(v) from the task's `retime` line; 0 when it has none.
  std::vector<long long> retiming;
  /// Line of the task's `retime` directive; 0 when it has none.
  std::vector<std::size_t> retime_lines;
};

/// The schedule grammar's one resolution step, shared by certify_schedule
/// and the strict parse_schedule (io/schedule_format.hpp): resolves `raw`
/// against `g` with one name index over the graph.  A `place` or `retime`
/// line naming no task of `g` (or a name `g` declares twice), a `place`
/// beyond the declared processor count, and a task's second placement or
/// second retiming are CCS-S001 findings at their line, and the line is
/// dropped.
[[nodiscard]] ResolvedSchedule resolve_schedule(const Csdfg& g,
                                                const RawSchedule& raw,
                                                DiagnosticBag& bag);

/// Certifies a schedule file (raw form) for `g` on the machine described
/// by `topo`/`comm`.  Resolution problems (resolve_schedule's, and a
/// processor count that does not match the architecture) are CCS-S001;
/// everything placeable is then checked against the master
/// constraint (CCS-S002..S007), `retime` provenance is audited
/// (CCS-S008), and a clean schedule is cross-checked by unfolding
/// (CCS-S011).  Returns true iff no error findings were added.
[[nodiscard]] bool certify_schedule(const Csdfg& g, const RawSchedule& raw,
                                    const Topology& topo,
                                    const CommModel& comm,
                                    const CertifyOptions& options,
                                    DiagnosticBag& bag);

/// Certifies an in-memory table of `facts.graph()` (same checks minus
/// file-only ones); spans anchor to `label` as a whole.  Used by the
/// Solver, `simulate --certify` and the run-level audit below.  CCS-S015
/// reads the critical cycle and Φ_min off `facts`.
[[nodiscard]] bool certify_table(const GraphFacts& facts,
                                 const ScheduleTable& table,
                                 const CommModel& comm,
                                 const std::string& label,
                                 DiagnosticBag& bag,
                                 const CertifyOptions& options = {});

/// Defense-in-depth cross-check behind CCS-S015: a schedule of `length`
/// control steps that certified clean for `facts.graph()` on the machine
/// described by `pe_speeds` / `pipelined` / `comm` must not beat the
/// claimed-sound local CCS-B composite (analysis/bounds.hpp) — the bound
/// is derived from first principles independently of both the scheduler
/// and the certifier, so a violation means one of the three is wrong.  Runs
/// automatically after every clean certify_schedule / certify_table;
/// exposed so tests can pin the diagnostic without having to break the
/// bound derivation itself.  Returns true iff no finding was added.
[[nodiscard]] bool cross_check_schedule_bound(const GraphFacts& facts,
                                              int length,
                                              const std::vector<int>& pe_speeds,
                                              bool pipelined,
                                              const CommModel& comm,
                                              const SourceSpan& span,
                                              DiagnosticBag& bag);

/// Audits a whole cyclo-compaction run of `facts.graph()`:
///  * the claimed retimed graph has the input's tasks, times and edges,
///    and the accumulated retiming is legal for the input graph and
///    reproduces its delays (CCS-S008 / CCS-S010);
///  * without relaxation, the per-pass length trace is monotone
///    non-increasing from the start-up length (Theorem 4.4, CCS-S009);
///  * the claimed best length / best pass agree with the trace
///    (CCS-S010);
///  * both the start-up and best tables certify clean (including the
///    unfold cross-check).
/// Once the retiming audit is clean, the best table's CCS-S015 check reads
/// the retimed graph's cycle ratio, critical cycle and Φ_min off `facts`
/// (GraphFacts::retimed); otherwise the retimed graph gets facts of its
/// own.  `label` names the run in spans.  Returns true iff
/// clean.
[[nodiscard]] bool certify_compaction_run(const GraphFacts& facts,
                                          const CycloCompactionResult& result,
                                          const CommModel& comm,
                                          RemapPolicy policy,
                                          const std::string& label,
                                          const CertifyOptions& options,
                                          DiagnosticBag& bag);

/// Structural audit of a recorded JSONL trace (no re-run): every line
/// parses as a flat object with contiguous `seq` from 0 and a known
/// `kind` (CCS-S013); `pass_end` bookkeeping (best_length = running
/// minimum, improved flag) holds (CCS-S010); with `strict_monotone`
/// (without-relaxation runs) pass lengths never grow (CCS-S009).
/// Returns true iff clean.
[[nodiscard]] bool audit_trace(const std::string& trace_text,
                               const std::string& file, bool strict_monotone,
                               DiagnosticBag& bag);

/// Replay verification: deterministically re-runs cyclo_compact(g) under
/// `options` with an in-memory tracer and diffs the recorded stream
/// against the replayed one event by event (canonical field order).  Any
/// divergence — edited fields, dropped or injected events — is CCS-S012
/// with the line of first divergence.  `sim_run` events in the recording
/// are ignored (the replay covers the scheduling pipeline, not simulator
/// runs appended to the same file).  Returns true iff the streams match.
[[nodiscard]] bool replay_trace(const Csdfg& g, const Topology& topo,
                                const CommModel& comm,
                                const CycloCompactionOptions& options,
                                const std::string& trace_text,
                                const std::string& file, DiagnosticBag& bag);

}  // namespace ccs
