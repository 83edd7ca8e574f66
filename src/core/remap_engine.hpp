// ccsched — the remap engine.
//
// The remapping phase (Definitions 4.2/4.3, Lemmas 4.2/4.3) is the hot path
// of cyclo-compaction: for every rotated task v, every candidate processor
// p_j and every target length the anticipation function
//
//   AN(v, p_j) = max(1, max_i { CE(u_i) + M(PE(u_i), p_j, c(e_i)) + 1
//                               - k_i * L_target })
//
// bounds the earliest feasible start step.  RemapEngine keeps the state
// those probes consult *incrementally* instead of recomputing it per probe:
//
//  * per-PE occupancy bitsets (one word per 64 control steps) make the
//    slot-free test a handful of word probes instead of a cell walk;
//  * per-node predecessor contributions to AN are cached once per remap
//    call, grouped by edge delay so a target change is a multiply-add, and
//    delta-updated as rotated tasks are placed — only a rotated node's own
//    edges can change a cached bound (docs/ALGORITHM.md derives this from
//    Lemma 4.2);
//  * flat SoA arrays (start step, PE, CE) replace the map-shaped table in
//    the scheduler inner loop, with an origin offset so the post-rotation
//    uniform shift is a single integer increment;
//  * the first row, the occupied length, the leading empty rows and the
//    Lemma 4.3 PSL padding are maintained on every place/unplace (per-step
//    row lists and CE counts, a per-edge max tree of PSL requirements), so
//    a target attempt never rescans the whole graph;
//  * an undo journal records the placements, edge delays and retiming
//    entries touched since the last commit(), so commit() is O(1) and
//    rollback() costs what the discarded pass touched.
//
// Lifecycle:
//
//     RemapEngine engine(g, comm);
//     engine.bind(startup_table);            // import a schedule
//     for (pass ...) {
//       auto rotated = engine.rotate();      // Def. 4.1 + retiming r(J)+=1
//       auto len = engine.remap(rotated, previous, policy, selection, obs);
//       if (len) engine.commit(); else { engine.rollback(); break; }
//     }
//     ScheduleTable best = engine.table();
//
// bind() also accepts a partial table; place() then fills in the unplaced
// tasks at one fixed target (the repair ladder's remap rung).  The v1
// pass this engine replaced lives on in tests/ as the differential referee
// (tests/remap_referee.hpp); the engine must stay placement-for-placement
// identical to it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/comm_model.hpp"
#include "core/csdfg.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Remapping policy of Definition 4.2.
enum class RemapPolicy {
  kWithoutRelaxation,  ///< Never end a pass longer than it started.
  kWithRelaxation,     ///< Allow intermediate growth (best-so-far elsewhere).
};

/// How the remapper picks among feasible (processor, step) slots.
enum class RemapSelection {
  /// Predecessor bound + successor bound + slot availability — every slot
  /// offered is feasible for the already-placed neighbors (default).
  kBidirectional,
  /// The paper's literal procedure: predecessor-side AN only; successor
  /// violations surface as a larger PSL afterwards.  Kept for the ablation
  /// bench (A1/A2 in DESIGN.md).
  kAnticipationOnly,
};

/// Remap cost accounting, accumulated across every remap() / place() call
/// of one engine (and mirrored into the remap.* / an.* counters when an
/// ObsContext with metrics is supplied).  `slots_scanned` counts the
/// 64-step occupancy bitset words examined; `an_evaluations` counts
/// Lemma 4.2 anticipation evaluations.
struct RemapStats {
  long long slots_scanned = 0;
  long long an_evaluations = 0;
};

/// A complete schedule as flat per-task arrays: what a compaction run keeps
/// as its best-so-far (RemapEngine::save) and materializes only when read
/// (core/cyclo_compaction.hpp).
struct FlatSchedule {
  std::vector<PeId> pe;  ///< Processor per task.
  std::vector<int> cb;   ///< Logical (1-based) first control step per task.
  int length = 0;
};

/// The incremental remap engine.  One engine serves one (graph, machine)
/// compaction run: bind() imports the start-up schedule, then each pass is
/// rotate() / remap() / commit()-or-rollback().  All views (table(),
/// graph(), retiming(), length()) reflect the *working* state; rollback()
/// restores the last committed state by undoing the journal.
///
/// Not thread-safe; give each portfolio attempt its own engine.
class RemapEngine {
 public:
  /// Captures the graph (structure + current delays) and the communication
  /// model.  The model must outlive the engine.
  RemapEngine(const Csdfg& g, const CommModel& comm);

  /// Imports a schedule of the construction graph: machine shape (PE
  /// count, speeds, pipelining), every placement and the length.  The
  /// table may be partial; place() fills in the rest.  Resets the engine's
  /// graph delays and retiming to the construction state and commits.  May
  /// be called again to restart from a different table.
  void bind(const ScheduleTable& table);

  /// Rotates the first row (Definition 4.1): returns the tasks with
  /// CB == 1 (ascending id), removes them, applies the retiming
  /// r(J) += 1 to the working graph, and shifts every remaining task one
  /// step earlier.  Throws GraphError (engine untouched) if the retiming
  /// would be illegal, with Retiming::apply's message.  Requires every task
  /// placed.  Costs O(|J| log |J|) plus the degree of J: only edges with
  /// exactly one endpoint in J change delay.
  std::vector<NodeId> rotate();

  /// One full remapping pass per Definition 4.2 over the working state:
  /// tries target lengths previous_length - 1, previous_length, then (with
  /// relaxation) successively longer targets.  On success the working
  /// state holds the new complete schedule and its length is returned; on
  /// failure returns nullopt with the working state back at the
  /// post-rotation base.  `obs` receives remap_target / remap_decision /
  /// psl_pad events, the remap.* / an.evaluations / psl.* counters and the
  /// remap / remap.target / remap.an spans (docs/OBSERVABILITY.md).
  [[nodiscard]] std::optional<int> remap(const std::vector<NodeId>& rotated,
                                         int previous_length,
                                         RemapPolicy policy,
                                         RemapSelection selection,
                                         const ObsContext& obs = {});

  /// One placement attempt at exactly `target`: places every task of
  /// `tasks` (which must be exactly the unplaced tasks) with each CE
  /// within `target`, pulls the schedule up over vacated leading rows,
  /// then pads the length to the PSL bound (Lemma 4.3).  Placement order:
  /// longer execution time first, node id as tie-break.  Slot choice:
  /// smallest start step, then smallest total communication to placed
  /// neighbors, then lowest processor id.  Returns the padded length with
  /// the working state complete, or nullopt with the working state
  /// unchanged.  Emits remap_decision / psl_pad events and the remap.* /
  /// an.evaluations / psl.* counters, but no remap_target event.
  [[nodiscard]] std::optional<int> place(const std::vector<NodeId>& tasks,
                                         int target, RemapSelection selection,
                                         const ObsContext& obs = {});

  /// Accepts the working state as the new committed state.  O(1): it
  /// clears the undo journal.
  void commit();

  /// Discards the working state and restores the last committed one
  /// (placements, length, graph delays, retiming) by undoing the journal
  /// in reverse: the cost is what the discarded work touched.
  void rollback();

  /// True once bind() has run.
  [[nodiscard]] bool bound() const noexcept { return bound_; }
  [[nodiscard]] const RemapStats& stats() const noexcept { return stats_; }

  /// Working schedule length.
  [[nodiscard]] int length() const noexcept { return length_; }

  /// Working graph (delays as rotated so far).
  [[nodiscard]] const Csdfg& graph() const noexcept { return graph_; }

  /// Total retiming from the construction graph to graph().
  [[nodiscard]] const Retiming& retiming() const noexcept { return retiming_; }

  /// Materializes the working state as a ScheduleTable of length(); tasks
  /// rotated out and not yet remapped are left unplaced.
  [[nodiscard]] ScheduleTable table() const;

  /// Copies the complete working state into `out`, reusing its storage.
  void save(FlatSchedule& out) const;

 private:
  /// A cached bound fold: every placed static neighbor with the same edge
  /// delay k, folded per candidate processor into num_pes_ consecutive
  /// entries of fold_ (max for AN, min for latest).
  struct KGroup {
    long long k = 0;
    std::size_t at = 0;  ///< Offset of the per-PE fold in fold_.
  };
  /// A node's groups: a contiguous run of groups_.
  struct GroupRange {
    std::size_t first = 0;
    std::size_t count = 0;
  };
  /// Delta entry from a rotated predecessor placed mid-attempt.
  struct DynAn {
    long long base = 0;  ///< CE(u) + 1 at the placement.
    long long k = 0;
    PeId pe = 0;
    std::size_t vol = 0;  ///< Volume index into cost_.
  };
  /// Delta entry from a rotated successor placed mid-attempt.
  struct DynLat {
    long long cb = 0;  ///< CB(w) at the placement.
    long long k = 0;
    PeId pe = 0;
    std::size_t vol = 0;
  };
  /// Delta entry for the neighbor-communication tie-break.
  struct DynComm {
    PeId pe = 0;
    std::size_t vol = 0;
    bool incoming = false;  ///< True: placed node is a predecessor.
  };
  /// Per-PE first-free answer, valid for one attempt (see attempt()).
  struct FreeMemo {
    int lo = 0;
    int cb = -1;
    int span = -1;
  };
  /// One undo-journal entry: the prior value of a piece of working state
  /// touched since the last commit().
  struct Undo {
    enum class Kind : unsigned char { kPlaced, kUnplaced, kDelay, kRetiming };
    Kind kind = Kind::kPlaced;
    std::size_t id = 0;   ///< Node (placements, retiming) or edge (delay).
    PeId pe = 0;          ///< kUnplaced: the task's processor.
    long long value = 0;  ///< kUnplaced: physical CB; else the old value.
  };

  // Geometry helpers (logical step = physical step - origin_).
  [[nodiscard]] int span_of(NodeId v, PeId pe) const noexcept;
  [[nodiscard]] int time_on(NodeId v, PeId pe) const noexcept;
  [[nodiscard]] int lcb(NodeId v) const noexcept;  ///< Logical CB.
  [[nodiscard]] int lce(NodeId v) const noexcept;  ///< Logical CE.
  [[nodiscard]] int pce(NodeId v) const noexcept;  ///< Physical CE.
  [[nodiscard]] bool complete() const noexcept;
  [[nodiscard]] int occupied_logical() const noexcept;
  [[nodiscard]] CommCost cost_at(std::size_t vol_idx, PeId from,
                                 PeId to) const noexcept;

  void import_table(const ScheduleTable& table);
  /// Journaled placement changes (the working-state mutators).
  void place_working(NodeId v, PeId pe, int cb_logical);
  void unplace_working(NodeId v);
  void set_delay_working(EdgeId e, int delay);
  /// Raw placement changes: occupancy, row lists, CE counts and the PSL
  /// requirements of v's edges, without journaling.
  void put(NodeId v, PeId pe, int cb_phys);
  void take(NodeId v);
  void set_bits(PeId pe, int cb_phys, int span, bool value);
  /// Recomputes edge e's Lemma 4.3 requirement from the current state.
  void refresh_psl(EdgeId e);
  /// Undoes the journal down to `mark` entries, newest first, and restores
  /// origin and length (which every pass or attempt saves at its start).
  void unwind(std::size_t mark, int origin, int length);

  /// First logical step >= earliest with `span` free steps on `pe`,
  /// counting one probe per bitset word examined.
  [[nodiscard]] int bitset_first_free(PeId pe, int earliest, int span,
                                      long long& probes) const;

  /// Sorts `tasks` into placement order (order_) and builds the static
  /// bound caches; once per remap() / place() call.
  void prepare(const std::vector<NodeId>& tasks, RemapSelection selection);
  /// One placement attempt of order_ at `target` (the body of place()).
  /// On success the working state is complete and the journal lists the
  /// placements; on failure the working state is unwound.
  [[nodiscard]] std::optional<int> attempt(int target,
                                           RemapSelection selection,
                                           const ObsContext& obs);

  void build_static_caches(const std::vector<NodeId>& rotated,
                           RemapSelection selection);
  [[nodiscard]] long long eval_an(NodeId v, PeId pe,
                                  long long target) const noexcept;
  [[nodiscard]] long long eval_latest(NodeId v, PeId pe,
                                      long long target) const noexcept;
  [[nodiscard]] long long eval_neighbor_comm(NodeId v,
                                             PeId pe) const noexcept;
  [[nodiscard]] int node_psl_bound_soa(NodeId v, PeId pe, int cb) const;
  [[nodiscard]] int min_feasible_soa() const;

  // Immutable after construction / bind().
  const CommModel* comm_;
  std::size_t num_nodes_ = 0;
  std::size_t num_pes_ = 0;
  bool pipelined_ = false;
  bool bound_ = false;
  std::vector<int> times_;
  std::vector<int> base_delays_;  ///< Construction-time edge delays.
  std::vector<int> speeds_;
  std::vector<std::size_t> evol_idx_;  ///< Edge -> volume index.
  std::vector<std::size_t> vols_;      ///< Sorted-unique edge volumes.
  std::vector<CommCost> cost_;         ///< [vol][from][to] flat.
  /// Worst single-edge transfer on this machine (the largest volume
  /// between any two PEs); bounds the with-relaxation target search.
  long long worst_cost_ = 0;

  // Working state.
  Csdfg graph_;  ///< Delays track the working retiming.
  Retiming retiming_{0};
  std::vector<unsigned char> placed_;
  std::vector<PeId> wpe_;
  std::vector<int> wcb_;  ///< Physical CB; logical = wcb_ - origin_.
  std::vector<std::vector<std::uint64_t>> bits_;  ///< Physical occupancy.
  int origin_ = 0;
  int length_ = 0;
  std::size_t placed_count_ = 0;

  // Maintained on put/take, indexed by physical step.
  /// First task of the intrusive list of tasks starting at each step
  /// (kNoNode when none); row_next_/row_prev_ link the tasks of a row.
  std::vector<NodeId> row_head_;
  std::vector<NodeId> row_next_;
  std::vector<NodeId> row_prev_;
  std::vector<int> ce_count_;  ///< Placed tasks ending at each step.
  int max_pce_ = 0;            ///< Largest physical CE placed (0: none).
  /// Lemma 4.3 per edge with both endpoints placed: leaves [E, 2E) of a
  /// max tree hold ceil(slack / d) (0 when satisfied); slack is invariant
  /// under the uniform origin shift, so only re-placed tasks' edges move.
  std::vector<long long> psl_tree_;
  /// Zero-delay edges whose slack is positive (intra-iteration breaks).
  std::vector<unsigned char> psl_broken_;
  std::size_t broken_edges_ = 0;

  // Undo journal since the last commit().
  std::vector<Undo> journal_;
  int committed_origin_ = 0;
  int committed_length_ = 0;
  RemapStats stats_;

  // Per-remap-call scratch (sized to the graph, reused across calls).
  std::vector<long long> fold_;  ///< Arena of per-PE folds and comm sums.
  std::vector<KGroup> groups_;
  std::vector<GroupRange> an_groups_;
  std::vector<GroupRange> lat_groups_;
  std::vector<std::size_t> ncomm_at_;  ///< Offset of v's comm sums in fold_.
  std::vector<std::vector<DynAn>> dyn_an_;
  std::vector<std::vector<DynLat>> dyn_lat_;
  std::vector<std::vector<DynComm>> dyn_comm_;
  std::vector<NodeId> order_;  ///< Placement order of the current call.
  std::vector<unsigned char> rotating_;  ///< rotate()'s membership marks.
  std::vector<FreeMemo> free_memo_;
};

}  // namespace ccs
