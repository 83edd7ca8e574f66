// ccsched — the static cyclic schedule table.
//
// A schedule is a table of L control steps (rows, 1-based) by P processors
// (columns): one iteration of the loop body, repeated every L steps
// (Section 2: "a clock cycle is equivalent to one control step in the static
// schedule").  A task v placed at (CB(v), PE(v)) occupies its processor for
// control steps CB(v) .. CE(v) = CB(v)+t(v)-1; with pipelined processors
// (Section 2's "pipeline design" remark) only the issue step is occupied.
//
// The table supports the operations the paper's algorithms need: placement /
// removal, first-fit queries, extraction of the first row (rotation), the
// uniform upward shift that renumbers control steps after a rotation, and
// length adjustment (PSL may append empty steps).
#pragma once

#include <optional>
#include <vector>

#include "arch/topology.hpp"
#include "core/csdfg.hpp"

namespace ccs {

/// Largest schedule the toolkit builds or reads, in control steps.  Tables
/// materialize one row per step, so the schedule readers
/// (io/schedule_format.hpp) refuse longer declared lengths and the Solver
/// refuses bodies whose longest task alone would exceed it.
inline constexpr int kMaxScheduleLength = 1'000'000;

/// Where a task sits in the table.
struct Placement {
  PeId pe = 0;  ///< Executing processor.
  int cb = 0;   ///< First control step (1-based).

  [[nodiscard]] bool operator==(const Placement&) const = default;
};

/// A (partial) static schedule of one CSDFG iteration on P processors.
///
/// Processors may be heterogeneous: each PE carries an integer speed
/// divisor (1 = nominal), and a task with base time t placed on a PE with
/// speed factor s executes for t*s control steps.  The paper assumes
/// homogeneous machines; the heterogeneous extension threads through the
/// whole pipeline (list scheduler, remapper, validator, simulator).
class ScheduleTable {
public:
  /// Creates an empty table for the tasks of `g` on `num_pes` homogeneous
  /// processors.  Task execution times are captured at construction (they
  /// never change; edge delays do, and the table is independent of those).
  /// When `pipelined_pes` is true a task occupies only its issue step.
  ScheduleTable(const Csdfg& g, std::size_t num_pes,
                bool pipelined_pes = false);

  /// Heterogeneous machine: pe_speeds[p] >= 1 is the slowdown factor of
  /// processor p (1 = nominal speed).  The processor count is
  /// pe_speeds.size().
  ScheduleTable(const Csdfg& g, std::vector<int> pe_speeds,
                bool pipelined_pes = false);

  [[nodiscard]] std::size_t num_pes() const noexcept { return num_pes_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return times_.size();
  }
  [[nodiscard]] bool pipelined_pes() const noexcept { return pipelined_; }

  /// Current schedule length L (control steps per iteration).  Grows
  /// automatically on placement; can be set explicitly (PSL padding) via
  /// set_length.
  [[nodiscard]] int length() const noexcept { return length_; }

  /// Smallest length covering every placed task (max CE, or 0 if empty).
  [[nodiscard]] int occupied_length() const noexcept;

  /// Sets the schedule length; must be >= occupied_length().
  void set_length(int length);

  /// Base execution time of task v as captured from the graph.
  [[nodiscard]] int time(NodeId v) const;

  /// Speed (slowdown) factor of processor `pe`; 1 on homogeneous machines.
  [[nodiscard]] int pe_speed(PeId pe) const;
  /// Every processor's speed factor, one per PE.
  [[nodiscard]] const std::vector<int>& pe_speeds() const { return speeds_; }

  /// Effective execution time of v on `pe`: time(v) * pe_speed(pe).
  [[nodiscard]] int time_on(NodeId v, PeId pe) const;

  [[nodiscard]] bool is_placed(NodeId v) const;

  /// Number of placed tasks.
  [[nodiscard]] std::size_t placed_count() const noexcept { return placed_; }

  /// True when every task of the graph is placed.
  [[nodiscard]] bool complete() const noexcept {
    return placed_ == times_.size();
  }

  /// Placement of v; task must be placed.
  [[nodiscard]] Placement placement(NodeId v) const;

  /// First control step of v (CB); task must be placed.
  [[nodiscard]] int cb(NodeId v) const { return placement(v).cb; }

  /// Last control step of v (CE = CB + time_on(v, PE(v)) - 1); task must
  /// be placed.
  [[nodiscard]] int ce(NodeId v) const;

  /// Processor of v; task must be placed.
  [[nodiscard]] PeId pe(NodeId v) const { return placement(v).pe; }

  /// True iff processor `pe` has no occupant in steps [from, to].
  [[nodiscard]] bool is_free(PeId pe, int from, int to) const;

  /// The earliest control step >= `earliest` at which a task of duration
  /// `duration` fits on processor `pe` (ignoring any length limit — the
  /// caller decides whether the resulting CE is acceptable).
  [[nodiscard]] int first_free(PeId pe, int earliest, int duration) const;

  /// Occupant of (pe, cs), if any.
  [[nodiscard]] std::optional<NodeId> occupant(PeId pe, int cs) const;

  /// Places task v at (pe, cb).  Preconditions: v unplaced, cb >= 1, the
  /// processor is free over the occupied span.  Extends length() if needed.
  void place(NodeId v, PeId pe, int cb);

  /// Removes task v from the table (length is left unchanged).
  void remove(NodeId v);

  /// Tasks with CB == cs, ascending by node id.
  [[nodiscard]] std::vector<NodeId> nodes_starting_at(int cs) const;

  /// Shifts every placed task one control step earlier and shrinks the
  /// length by one.  Precondition: no task starts at step 1 (the rotation
  /// has already removed the first row) and length() >= 1.
  void shift_up();

  /// Repeatedly shift_up() while the first row has no task starting in it;
  /// returns the number of steps removed.  Trailing empty steps are NOT
  /// trimmed here (the length may be held above occupied_length() by PSL).
  int compact_leading();

  /// All placements as (node, placement) pairs for placed tasks, ascending
  /// node id.  Convenient for validators and printers.
  [[nodiscard]] std::vector<std::pair<NodeId, Placement>> placements() const;

  /// Same machine (processor count, speeds, pipelining), same task times,
  /// the same placements and the same length.  How the table got there
  /// (placements since removed, say) does not matter.
  [[nodiscard]] bool operator==(const ScheduleTable& other) const;

private:
  std::size_t num_pes_;
  bool pipelined_;
  std::vector<int> times_;
  std::vector<int> speeds_;
  std::vector<std::optional<Placement>> where_;
  /// grid_[pe][cs-1] = occupant node id, or npos when free.
  std::vector<std::vector<std::size_t>> grid_;
  int length_ = 0;
  std::size_t placed_ = 0;

  [[nodiscard]] int occupied_span(NodeId v, PeId pe) const {
    return pipelined_ ? 1 : times_[v] * speeds_[pe];
  }
  void ensure_rows(PeId pe, int cs);
};

}  // namespace ccs
