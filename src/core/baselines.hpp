// ccsched — the baseline schedulers the paper compares against.
//
// * Communication-oblivious list scheduling: the classic algorithm the
//   paper's Section 1 survey attributes to most prior work — identical
//   machinery with communication priced at zero.
// * Communication-oblivious rotation scheduling (Chao, LaPaugh & Sha, DAC
//   1993, the paper's reference [2]): cyclo-compaction with a zero
//   communication model — rotation + remapping that "does not consider the
//   communication between processors".
// * Retime-then-schedule: Leiserson–Saxe minimum-period retiming followed by
//   one communication-aware start-up schedule — loop pipelining applied once
//   up front instead of incrementally.
//
// Oblivious baselines generally emit tables that are invalid under the real
// communication model; compare them through the self-timed simulator
// (sim/executor.hpp), which charges the communication they actually incur.
#pragma once

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/schedule.hpp"

namespace ccs {

/// Classic list scheduling that ignores communication delays.  The returned
/// table honors intra-iteration precedence and resources but not transport
/// time; evaluate it with the self-timed simulator.
[[nodiscard]] ScheduleTable oblivious_list_schedule(const Csdfg& g,
                                                    const Topology& topo);

/// Rotation scheduling [2]: cyclo-compaction driven by a zero communication
/// model (with relaxation, default passes).  Returns the full result; the
/// best table minimizes *computation-only* length.
[[nodiscard]] CycloCompactionResult rotation_scheduling_no_comm(
    const Csdfg& g, const Topology& topo);

/// Result of the retime-then-schedule baseline.
struct RetimeThenScheduleResult {
  Csdfg retimed_graph;   ///< The min-period retimed graph.
  ScheduleTable table;   ///< Communication-aware start-up schedule of it.
  long long min_period = 0;  ///< The period the retiming achieved.
};

/// Minimum-period retiming followed by one communication-aware start-up
/// schedule.  The returned table is valid under `comm`.
[[nodiscard]] RetimeThenScheduleResult retime_then_schedule(
    const Csdfg& g, const Topology& topo, const CommModel& comm);

}  // namespace ccs
