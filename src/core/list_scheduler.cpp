#include "core/list_scheduler.hpp"

#include <algorithm>
#include <vector>

#include "core/graph_algo.hpp"
#include "core/validator.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

namespace {

/// True when every zero-delay predecessor of v is already placed.
bool is_ready(const Csdfg& g, const ScheduleTable& table, NodeId v) {
  for (EdgeId eid : g.in_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.delay == 0 && !table.is_placed(e.from)) return false;
  }
  return true;
}

/// Placement snapshot of one scheduled zero-delay predecessor, hoisted out
/// of the per-processor probe loop.
struct PredSnapshot {
  int ce;
  PeId pe;
  std::size_t volume;
};

}  // namespace

ScheduleTable start_up_schedule(const Csdfg& g, const Topology& topo,
                                const CommModel& comm,
                                const StartUpOptions& options,
                                const ObsContext& obs) {
  g.require_legal();
  const ObsSpan list_span = obs.span("startup.list");
  CCS_EXPECTS(options.pe_speeds.empty() ||
              options.pe_speeds.size() == topo.size());
  ScheduleTable table =
      options.pe_speeds.empty()
          ? ScheduleTable(g, topo.size(), options.pipelined_pes)
          : ScheduleTable(g, options.pe_speeds, options.pipelined_pes);
  if (g.node_count() == 0) return table;

  const DagTiming timing = compute_dag_timing(g);

  // Upper bound on the control steps the loop may need: executing every task
  // serially on one PE (at the worst slowdown) and paying the network
  // diameter for every edge.
  int max_speed = 1;
  for (PeId p = 0; p < topo.size(); ++p)
    max_speed = std::max(max_speed, table.pe_speed(p));
  long long budget = g.total_computation() * max_speed;
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid)
    budget += static_cast<long long>(topo.diameter()) *
              static_cast<long long>(g.edge(eid).volume);
  budget += 1;

  long long candidate_slots = 0;
  int steps_scanned = 0;
  for (int cs = 1; !table.complete(); ++cs) {
    if (cs > budget)
      throw ScheduleError(
          "start-up scheduling failed to converge (internal error)");
    steps_scanned = cs;

    // Ready list for this control step, ordered by descending priority with
    // node id as the deterministic tie-break.
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < g.node_count(); ++v)
      if (!table.is_placed(v) && is_ready(g, table, v)) ready.push_back(v);
    std::stable_sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
      const long long pa =
          priority_value(options.priority, g, table, timing, a, cs);
      const long long pb =
          priority_value(options.priority, g, table, timing, b, cs);
      if (pa != pb) return pa > pb;
      return a < b;
    });

    std::vector<PredSnapshot> preds;
    for (NodeId v : ready) {
      // cm(p_j) = max_i { CE(u_i) + M(PE(u_i), p_j, c(e_i)) } over the
      // scheduled zero-delay predecessors; v may start at cs on p_j only if
      // cm < cs (the algorithm's validity test) and the slot is free.
      //
      // The predecessor placements cannot change while v probes processors,
      // so their (CE, PE, volume) triples are snapshotted once per node
      // instead of re-read from the table P times.  Communication costs are
      // non-negative, so max CE(u_i) lower-bounds cm on *every* processor:
      // when it already reaches cs the whole probe loop is provably futile
      // and is skipped (same placements, fewer startup.candidate_slots).
      preds.clear();
      long long min_cm = 0;
      for (EdgeId eid : g.in_edges(v)) {
        const Edge& e = g.edge(eid);
        if (e.delay != 0) continue;
        const int ce = table.ce(e.from);
        preds.push_back({ce, table.pe(e.from), e.volume});
        min_cm = std::max(min_cm, static_cast<long long>(ce));
      }
      if (min_cm >= cs) continue;
      bool placed = false;
      long long best_cm = 0;
      int best_finish = 0;
      PeId best_pe = 0;
      for (PeId pj = 0; pj < topo.size(); ++pj) {
        ++candidate_slots;
        const int span = options.pipelined_pes ? 1 : table.time_on(v, pj);
        long long cm = 0;
        for (const PredSnapshot& u : preds) {
          const long long m =
              options.comm_aware ? comm.cost(u.pe, pj, u.volume) : 0;
          cm = std::max(cm, static_cast<long long>(u.ce) + m);
        }
        if (cm < cs && table.is_free(pj, cs, cs + span - 1)) {
          // Prefer the earliest completion (heterogeneity-aware; identical
          // spans reduce this to the paper's min-cm rule), then min cm,
          // then the lowest-numbered processor.
          const int finish = cs + table.time_on(v, pj) - 1;
          if (!placed || finish < best_finish ||
              (finish == best_finish && cm < best_cm)) {
            placed = true;
            best_cm = cm;
            best_finish = finish;
            best_pe = pj;
          }
        }
      }
      if (placed) table.place(v, best_pe, cs);
      // Nodes that cannot be placed stay in the ready pool for the next
      // control step (the algorithm's dlist).
    }
  }

  // Raise the length to the PSL bound so the table is valid as a cyclic
  // schedule including its loop-carried edges.  Intra-iteration edges were
  // honored above, so the bound exists (comm-aware mode only; the
  // comm-oblivious baseline intentionally returns its raw table).
  if (options.comm_aware) {
    const int needed = min_feasible_length(g, table, comm);
    CCS_ASSERT(needed >= 0);
    if (needed > table.length()) table.set_length(needed);
  }
  if (obs.metrics != nullptr) {
    obs.metrics->add("startup.control_steps", steps_scanned);
    obs.metrics->add("startup.candidate_slots", candidate_slots);
  }
  obs.emit(StartupEvent{table.length(), steps_scanned});
  return table;
}

}  // namespace ccs
