// ccsched — schedule repair: remapping a broken machine's work onto the
// survivors.
//
// A fail-stop processor or a dead link invalidates a certified cyclic
// schedule.  The repair pass rebuilds one for the *reduced* machine — the
// surviving PEs and links, renumbered contiguously — by walking a
// degradation ladder from cheapest to most conservative:
//
//   rung 0  remap            keep every surviving placement, re-place only
//                            the dead processors' tasks via the anticipation
//                            machinery (core/remap_engine.hpp) at escalating target
//                            lengths;
//   rung 1  recompact-relax  full cyclo-compaction on the reduced machine,
//                            with relaxation (the paper's recommended
//                            configuration);
//   rung 2  recompact-strict cyclo-compaction without relaxation (monotone,
//                            Theorem 4.4 — auditable by the certifier's
//                            CCS-S009 check);
//   rung 3  list-schedule    the plain start-up schedule on the reduced
//                            machine, no compaction at all;
//   rung 4  serial           every task on one surviving processor.  All
//                            communication cost vanishes (M = 0 on-PE), so
//                            this rung succeeds for every legal graph and is
//                            the rung of last resort — also the only rung
//                            available when the survivors are disconnected.
//
// Every rung's candidate is certified from first principles
// (analysis/certify.hpp) before it is accepted; a rung that produces an
// uncertifiable table is reported and the ladder falls through.  Each
// attempt emits a `repair_attempt` trace event (docs/OBSERVABILITY.md).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/certify.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"
#include "robust/fault_plan.hpp"

namespace ccs {

/// Sentinel for "this original PE does not survive".
inline constexpr std::size_t kNoPe = static_cast<std::size_t>(-1);

/// The machine left after a fault plan's terminal state: surviving PEs
/// renumbered 0..n-1, surviving links renumbered to match.
struct ReducedMachine {
  /// The surviving interconnect; nullopt when no PE survives or the
  /// survivors are disconnected (Topology requires connectivity).
  std::optional<Topology> topo;
  /// reduced PE id -> original PE id, ascending (defined even when `topo`
  /// is nullopt, as long as at least one PE survives).
  std::vector<PeId> to_original;
  /// original PE id -> reduced PE id, or kNoPe for dead processors.
  std::vector<std::size_t> from_original;
  /// True when the survivors form a connected (usable) machine.
  bool connected = false;

  [[nodiscard]] std::size_t survivors() const noexcept {
    return to_original.size();
  }
};

/// Computes the reduced machine for the terminal state of `plan` (every
/// `fail` and `link` directive applied, regardless of iteration).  Never
/// throws: a disconnected or empty remainder is reported via the flags.
[[nodiscard]] ReducedMachine reduce_machine(const Topology& topo,
                                            const FaultPlan& plan);

/// The ladder rungs, cheapest first.  kInfeasible is the outcome when no
/// processor survives at all.
enum class RepairRung {
  kRemap = 0,
  kRecompactRelax,
  kRecompactStrict,
  kListSchedule,
  kSerial,
  kInfeasible,
};

/// Stable lower-case rung name ("remap", "recompact-relax",
/// "recompact-strict", "list-schedule", "serial", "infeasible") — used in
/// repair_attempt events and CLI reports.
[[nodiscard]] std::string_view repair_rung_name(RepairRung rung);

/// Knobs of the repair pass.
///
/// The machine's per-PE speeds and pipelining come from the baseline
/// table (RepairBaseline::table); the repair projects the speeds onto the
/// survivors.
struct RepairOptions {
  /// Options for the recompaction rungs (policy is overridden per rung;
  /// the budget, passes and startup priority are honoured).
  CycloCompactionOptions compaction;
  /// Certification options applied to every rung's candidate.
  CertifyOptions certify;
  /// Rung-0 escalation bound: how many control steps beyond the baseline
  /// length the remap rung may relax its target before falling through.
  int max_remap_slack = 64;
};

/// Everything a caller needs to act on a repair.
struct RepairOutcome {
  /// The rung that produced `schedule`; kInfeasible when none could.
  RepairRung rung = RepairRung::kInfeasible;
  /// True iff `schedule` holds a certified table for `machine`.
  bool success = false;
  /// The repaired cyclic schedule, in *reduced* PE numbering.
  std::optional<ScheduleTable> schedule;
  /// The machine `schedule` runs on (reduced topology, or the 1-PE serial
  /// machine for the last rung).
  std::optional<Topology> machine;
  /// machine PE id -> original PE id.
  std::vector<PeId> to_original;
  /// The graph whose delays `schedule` satisfies (retimed when the winning
  /// rung compacts or reuses the baseline's rotation state).
  Csdfg graph;
  /// Total retiming from the input graph to `graph`.
  Retiming retiming{0};
  /// Tasks displaced by dead processors (baseline placements lost).
  std::vector<NodeId> orphans;
  /// Human-readable outcome: why the winning rung won, or why every rung
  /// failed.
  std::string detail;
  /// One line per rung tried, in order ("remap: ..."), for reports.
  std::vector<std::string> attempts;
};

/// The schedule a repair starts from — all it reads of a solve of `g` on
/// the intact machine: the table, the (retimed) graph the table satisfies,
/// and the retiming from `g` to that graph.  Non-owning.
struct RepairBaseline {
  const Csdfg& graph;
  const ScheduleTable& table;
  const Retiming& retiming;
};

/// Repairs `baseline` (a schedule of `g` on `topo`, e.g. a cyclo-compaction
/// run's best table) against the terminal machine state of `plan`: walks
/// the degradation ladder on the reduced machine and returns the first rung
/// whose candidate certifies.
///
/// Deterministic.  Never throws on fault-plan content (an all-dead machine
/// yields rung == kInfeasible); throws GraphError only if `g` itself is
/// illegal.  `obs` receives one repair_attempt event per rung tried plus
/// the repair.* counters.
[[nodiscard]] RepairOutcome repair_schedule(const Csdfg& g,
                                            const RepairBaseline& baseline,
                                            const Topology& topo,
                                            const FaultPlan& plan,
                                            const RepairOptions& options = {},
                                            const ObsContext& obs = {});

}  // namespace ccs
