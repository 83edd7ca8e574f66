// ccsched — the parallel portfolio scheduling engine.
//
// Cyclo-compaction's configuration space (remap policy × slot selection ×
// start-up priority × pass budget) is small, cheap per point, and has no
// reliable a-priori winner: the paper's own experiments flip between
// configurations per workload and per architecture.  The portfolio engine
// embraces that: it runs N independently-configured attempts on a worker
// pool and returns the best schedule found, with per-attempt provenance.
//
// Attempt roster (portfolio_attempts):
//   * attempt 0 is exactly the caller's base configuration — the serial
//     driver.  The portfolio winner is therefore never worse than what
//     `cyclo_compact(g, topo, comm, base)` would have returned;
//   * attempts 1..k walk the systematic grid over {policy} × {selection} ×
//     {startup priority} × {default passes, |V| passes}, skipping the cell
//     the base configuration already occupies;
//   * attempts beyond the grid are seed-perturbed variants drawn from a
//     per-attempt deterministic Rng(seed, index) — more attempts never
//     reshuffle earlier ones.
//
// Attempts whose StartUpOptions agree share one start-up schedule: the
// lowest-indexed of them lists it (its trace carries startup.list and
// startup_done), so the default roster lists 3 tables, not 24.
//
// Trajectory sharing: cyclo-compaction is deterministic, so attempts with
// equal start-up tables, policy and selection make the same passes and
// differ only in how many (every attempt inherits the base budget).  Each
// such group runs one CompactionTrajectory (core/cyclo_compaction.hpp),
// which its attempts read in index order, each at its own pass count and
// each extending it only as far as that count needs.  The unit of work on
// the pool is the trajectory, and only the winner is materialized.
//
// Determinism contract: for a fixed (graph, machine, options, seed), the
// rows and the winning schedule are identical across runs and across
// --jobs values, unless a deadline or a caller's stop token makes the
// budget depend on timing.  The winner is the attempt with the smallest best length,
// ties broken by the smallest attempt index — never by completion order.
// Pruning preserves this: once an attempt's reading reaches the
// schedule-length lower bound, every later attempt provably loses the
// tie-break, so it stops or never starts, and its row reads "preempted" at
// pass 1 with its start-up length and no remap work, however far a worker
// got with it.  A budget's deadline bounds the whole portfolio: it counts
// from the portfolio's start, once for every attempt.
//
// Observability: each attempt records into its own Tracer (tagged with the
// attempt index), MetricsRegistry and SpanProfiler; after the join the
// engine merges them into the caller's ObsContext in attempt order, then
// adds the portfolio.* counters (docs/OBSERVABILITY.md).  Work counters
// count the passes that ran, in the context of the attempt whose read ran
// them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/diagnostics.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Configuration of the portfolio engine.
struct PortfolioOptions {
  /// Worker threads; 1 runs every attempt inline on the caller's thread
  /// (still the same rows and winner, by the determinism contract), 0 asks
  /// the hardware (std::thread::hardware_concurrency).
  int jobs = 1;
  /// Total attempts to run; 0 selects the full systematic grid (attempt 0
  /// plus every non-base grid cell).  Values beyond the grid add
  /// seed-perturbed attempts; values below it truncate (minimum 1).
  int attempts = 0;
  /// Seed for the perturbed tail.  Attempt i beyond the grid derives its
  /// configuration from Rng(seed, i) only — independent of every other
  /// attempt.
  std::uint64_t seed = 0;
  /// The serial driver's configuration; runs verbatim as attempt 0, and
  /// every grid attempt inherits its startup/budget fields (grid cells
  /// override policy, selection, priority, and passes).
  CycloCompactionOptions base;
  /// Audit the winning run (certify_compaction_run, analysis/certify.hpp)
  /// before returning; findings land in PortfolioResult::certification.
  bool certify_winner = true;
};

/// One fully-specified portfolio attempt.
struct AttemptConfig {
  CycloCompactionOptions options;
  /// Stable human-readable tag, e.g. "base" or "strict/an-only/fifo/z=v"
  /// or "seed#25/relax/bidir/mobility/z=17".
  std::string label;
};

/// Provenance of one attempt, in attempt order.
struct AttemptOutcome {
  std::string label;
  /// Best schedule length the attempt reached before finishing or being
  /// preempted.
  int length = 0;
  int startup_length = 0;
  /// Pass that first reached `length` (0 = the start-up schedule).
  int best_pass = 0;
  /// CycloCompactionResult::stop_reason ("" when the attempt ran out its
  /// pass count).
  std::string stop_reason;
  /// True when the attempt reads "preempted": its best reached the lower
  /// bound, an earlier attempt's did, or the caller's stop token fired.
  bool pruned = false;
  /// True for the winning attempt.
  bool winner = false;
  /// Remap cost accounting of this attempt's run: occupancy bitset words
  /// examined and Lemma 4.2 anticipation evaluations (see RemapStats).
  long long remap_slots_scanned = 0;
  long long an_evaluations = 0;
};

/// The portfolio's answer.
struct PortfolioResult {
  /// The winning run, in full (schedule, retimed graph, retiming, trace).
  CycloCompactionResult winner;
  std::size_t winner_attempt = 0;
  std::string winner_label;
  /// Attempt 0's best length — what the serial driver would have returned.
  /// winner.best.length() <= serial_length always.
  int serial_length = 0;
  /// The schedule-length lower bound the pruning logic used: the
  /// retiming-invariant composite of the static bound passes
  /// (analysis/bounds.hpp) — sound for every attempt because
  /// cyclo-compaction schedules retimed graphs.  Equals
  /// max(1, bound.value).
  int lower_bound = 0;
  /// Full per-pass provenance: every applicable CCS-B bound with its
  /// witness, plus the invariant/local composites and dominant codes.
  CompositeBound bound;
  /// Result of the whole-run audit of the winner (true when
  /// certify_winner is off — nothing failed).
  bool certified = true;
  /// Certifier findings for the winner (empty when certify_winner is off).
  DiagnosticBag certification;
  /// One row per attempt, index-aligned with the roster.
  std::vector<AttemptOutcome> attempts;
};

/// Expands `opt` into the deterministic attempt roster described above.
/// Pure: depends only on |V| (for the pass-count variants) and `opt`.
[[nodiscard]] std::vector<AttemptConfig> portfolio_attempts(
    const Csdfg& g, const PortfolioOptions& opt);

/// Runs the portfolio over `facts.graph()` on `opt.jobs` workers and
/// returns the best attempt.  Deterministic rows and winner (see the
/// contract above); throws GraphError if the graph is illegal, propagates a
/// start-up scheduling failure, and rethrows the first (by attempt index)
/// exception any attempt's compaction raised.  Only the calling thread
/// reads `facts` (before the workers start, after they join).  `obs`
/// receives merged metrics, attempt-tagged trace lines in attempt order,
/// the portfolio.* counters/gauges, and the portfolio span.
[[nodiscard]] PortfolioResult portfolio_compact(
    const GraphFacts& facts, const Topology& topo, const CommModel& comm,
    const PortfolioOptions& opt = {}, const ObsContext& obs = {});

}  // namespace ccs
