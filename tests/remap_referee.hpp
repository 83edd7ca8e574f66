// ccsched — the v1 remapping pass, kept as the test-only referee.
//
// These are the procedures cyclo-compaction ran before ccs::RemapEngine
// (core/remap_engine.hpp): the rotation of Definition 4.1 and the
// remapping pass of Definition 4.2, recomputing every anticipation bound
// from the table and walking the schedule grid cell by cell for every slot
// test.  They are deliberately slow and simple.  The differential tests
// (tests/test_remap_engine.cpp) hold the engine placement-for-placement
// identical to them; nothing outside tests/ links this file.
#pragma once

#include <optional>
#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/remap_engine.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs::referee {

/// Result of one remapping attempt.
struct RemapResult {
  bool success = false;  ///< Every rotated task was placed.
  int length = 0;        ///< Final table length (occupied + PSL padding).
};

/// Rotates the first row of `table`:
///  1. J = tasks with CB == 1 (returned),
///  2. removes them from the table,
///  3. applies the retiming r(J) += 1 to `g` (throws GraphError, leaving both
///     arguments untouched, if the retiming would be illegal),
///  4. shifts the remaining tasks one step earlier (length decreases by 1).
///
/// If `accumulated` is non-null the rotation's retiming is added to it.
/// Precondition: the table is complete and length() >= 1.
std::vector<NodeId> rotate_first_row(Csdfg& g, ScheduleTable& table,
                                     Retiming* accumulated = nullptr);

/// Tries to place every task of `rotated` into `table` with all CE within
/// `target_length`, then pads the table to the PSL bound.  On success the
/// table is complete with length() == result.length; on failure the table
/// is left partially filled (callers work on a copy).  Placement order:
/// larger execution time first, node id as tie-break.  Slot choice:
/// smallest start step, then smallest total communication to placed
/// neighbors, then lowest processor id.  `tally`, when non-null,
/// accumulates the AN evaluations and the grid cells probed.
[[nodiscard]] RemapResult try_remap(const Csdfg& g, ScheduleTable& table,
                                    const CommModel& comm,
                                    const std::vector<NodeId>& rotated,
                                    int target_length,
                                    RemapSelection selection,
                                    const ObsContext& obs = {},
                                    RemapStats* tally = nullptr);

/// One full remapping pass per Definition 4.2: tries target lengths
/// `previous_length - 1`, then `previous_length`, then (with relaxation
/// only) successively longer targets until placement succeeds.  Returns
/// the successful table, or std::nullopt when the policy is
/// without-relaxation and no target <= previous_length admits a placement
/// whose padded length stays <= previous_length.  `table` must be the
/// post-rotation (shifted) table; it is not modified.
[[nodiscard]] std::optional<ScheduleTable> remap_rotated(
    const Csdfg& g, const ScheduleTable& table, const CommModel& comm,
    const std::vector<NodeId>& rotated, int previous_length,
    RemapPolicy policy,
    RemapSelection selection = RemapSelection::kBidirectional,
    const ObsContext& obs = {}, RemapStats* tally = nullptr);

/// The v1 cyclo-compaction driver: start-up schedule, then rotate_first_row
/// / remap_rotated passes on table copies, keeping the shortest table.
/// Fills every CycloCompactionResult field the engine driver fills;
/// remap_stats.slots_scanned counts grid cells.  Budgets are not
/// supported (`options.budget` must be inactive), so stop_reason is empty.
[[nodiscard]] CycloCompactionResult cyclo_compact(
    const Csdfg& g, const Topology& topo, const CommModel& comm,
    const CycloCompactionOptions& options = {});

}  // namespace ccs::referee
