#include "remap_referee.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/list_scheduler.hpp"
#include "core/validator.hpp"
#include "util/contracts.hpp"

namespace ccs::referee {

std::vector<NodeId> rotate_first_row(Csdfg& g, ScheduleTable& table,
                                     Retiming* accumulated) {
  CCS_EXPECTS(table.complete());
  CCS_EXPECTS(table.length() >= 1);
  CCS_EXPECTS(table.node_count() == g.node_count());

  const std::vector<NodeId> rotated = table.nodes_starting_at(1);

  Retiming r(g.node_count());
  for (NodeId v : rotated) r.add(v, 1);
  r.apply(g);  // throws (graph unchanged) if illegal — table also untouched

  for (NodeId v : rotated) table.remove(v);
  table.shift_up();

  if (accumulated) *accumulated = *accumulated + r;
  return rotated;
}

namespace {

/// Total communication volume-cost between v (hypothetically on `pe`) and
/// its placed neighbors — the deterministic tie-break that prefers slots
/// keeping chatty neighbors close.
long long neighbor_comm(const Csdfg& g, const ScheduleTable& table,
                        const CommModel& comm, NodeId v, PeId pe) {
  long long total = 0;
  for (EdgeId eid : g.in_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.from != v && table.is_placed(e.from))
      total += comm.cost(table.pe(e.from), pe, e.volume);
  }
  for (EdgeId eid : g.out_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.to != v && table.is_placed(e.to))
      total += comm.cost(pe, table.pe(e.to), e.volume);
  }
  return total;
}

/// The PSL bound contributed by v's own delay-carrying edges if v sits at
/// (pe, cb): the smallest cyclic length under which every loop-carried
/// communication between v and its placed neighbors (and v's self-loops)
/// fits — ceil((CE + M + 1 - CB) / k) per edge, Lemma 4.3 restricted to v.
/// Trace-only (the remap_decision "psl" field); never on the untraced path.
int node_psl_bound(const Csdfg& g, const ScheduleTable& table,
                   const CommModel& comm, NodeId v, PeId pe, int cb) {
  const int ce_v = cb + table.time_on(v, pe) - 1;
  long long bound = 0;
  const auto fold = [&bound](long long numerator, long long delay) {
    if (numerator <= 0) return;
    bound = std::max(bound, (numerator + delay - 1) / delay);
  };
  for (EdgeId eid : g.in_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.delay == 0) continue;
    if (e.from == v) {
      fold(ce_v + 1 - cb, e.delay);  // self-loop: M(pe, pe) = 0
    } else if (table.is_placed(e.from)) {
      fold(table.ce(e.from) + comm.cost(table.pe(e.from), pe, e.volume) + 1 -
               cb,
           e.delay);
    }
  }
  for (EdgeId eid : g.out_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.delay == 0 || e.to == v) continue;
    if (table.is_placed(e.to))
      fold(ce_v + comm.cost(pe, table.pe(e.to), e.volume) + 1 -
               table.cb(e.to),
           e.delay);
  }
  return static_cast<int>(
      std::min<long long>(bound, std::numeric_limits<int>::max()));
}

/// The worst communication cost any single edge of `g` can incur on a
/// machine with `num_pes` processors under `comm` — used to bound the
/// with-relaxation target search.
long long worst_edge_cost(const Csdfg& g, const CommModel& comm,
                          std::size_t num_pes) {
  long long worst = 0;
  std::size_t max_volume = 1;
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    max_volume = std::max(max_volume, g.edge(e).volume);
  for (PeId a = 0; a < num_pes; ++a)
    for (PeId b = 0; b < num_pes; ++b)
      worst = std::max(worst,
                       static_cast<long long>(comm.cost(a, b, max_volume)));
  return worst;
}

/// Replica of ScheduleTable::first_free that counts every occupancy probe —
/// one per grid cell inspected — into `probes`.  Placement-identical to the
/// uncounted original; the engine counts bitset words for the same query,
/// so the two counts compare directly as the slot-test speedup.
int counted_first_free(const ScheduleTable& table, PeId pe, int earliest,
                       int duration, long long& probes) {
  const int span = table.pipelined_pes() ? 1 : duration * table.pe_speed(pe);
  int cs = std::max(1, earliest);
  for (;;) {
    bool free = true;
    for (int s = cs; s < cs + span; ++s) {
      ++probes;
      if (table.occupant(pe, s).has_value()) {
        free = false;
        break;
      }
    }
    if (free) return cs;
    ++cs;
  }
}

}  // namespace

RemapResult try_remap(const Csdfg& g, ScheduleTable& table,
                      const CommModel& comm,
                      const std::vector<NodeId>& rotated, int target_length,
                      RemapSelection selection, const ObsContext& obs,
                      RemapStats* tally) {
  // Place long tasks first; ties broken by node id for determinism.
  std::vector<NodeId> order = rotated;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (g.node(a).time != g.node(b).time)
      return g.node(a).time > g.node(b).time;
    return a < b;
  });

  // Hot-loop tallies are accumulated locally and flushed once per call so
  // the per-slot cost with metrics enabled stays a register increment.  The
  // per-evaluation AN histogram follows the same rule: a local fixed-bucket
  // accumulator, folded into the profiler once per call, so profiling never
  // takes a lock inside the slot scan.
  long long an_evaluations = 0;
  long long slots_scanned = 0;
  const bool profiled = obs.profiling();
  const ObsSpan an_span = obs.span("remap.an");
  SpanHistogram an_hist;
  const auto flush_profile = [&] {
    if (profiled) obs.profiler->fold("an.eval", an_hist);
  };
  const auto flush_tally = [&] {
    if (tally != nullptr) {
      tally->an_evaluations += an_evaluations;
      tally->slots_scanned += slots_scanned;
    }
  };

  for (NodeId v : order) {
    CCS_ASSERT(!table.is_placed(v));
    bool found = false;
    int best_cb = 0;
    long long best_comm = 0;
    PeId best_pe = 0;
    int best_lo = 0;
    int best_hi = 0;

    for (PeId pe = 0; pe < table.num_pes(); ++pe) {
      int lo;
      if (profiled) {
        const std::uint64_t t0 = span_now_ns();
        lo = anticipation(g, table, comm, v, pe, target_length);
        an_hist.add(span_now_ns() - t0);
      } else {
        lo = anticipation(g, table, comm, v, pe, target_length);
      }
      ++an_evaluations;
      const int hi = selection == RemapSelection::kBidirectional
                         ? latest_start(g, table, comm, v, pe, target_length)
                         : target_length - table.time_on(v, pe) + 1;
      if (lo > hi) continue;
      const int cb =
          counted_first_free(table, pe, lo, g.node(v).time, slots_scanned);
      if (cb > hi) continue;
      const long long cc = neighbor_comm(g, table, comm, v, pe);
      if (!found || cb < best_cb || (cb == best_cb && cc < best_comm)) {
        found = true;
        best_cb = cb;
        best_comm = cc;
        best_pe = pe;
        best_lo = lo;
        best_hi = hi;
      }
    }
    if (!found) {
      flush_profile();
      flush_tally();
      if (obs.metrics != nullptr) {
        obs.metrics->add("an.evaluations", an_evaluations);
        obs.metrics->add("remap.slots_scanned", slots_scanned);
        obs.count("remap.placement_failures");
      }
      if (obs.tracing()) {
        RemapDecisionEvent ev;
        ev.node = v;
        ev.accepted = false;
        ev.slots_scanned = static_cast<int>(table.num_pes());
        ev.reason = "no-feasible-slot";
        obs.emit(ev);
      }
      return {false, table.length()};
    }
    if (obs.tracing()) {
      RemapDecisionEvent ev;
      ev.node = v;
      ev.accepted = true;
      ev.pe = best_pe;
      ev.cb = best_cb;
      ev.an = best_lo;
      ev.latest = best_hi;
      ev.psl = node_psl_bound(g, table, comm, v, best_pe, best_cb);
      ev.slots_scanned = static_cast<int>(table.num_pes());
      ev.reason = "placed";
      obs.emit(ev);
    }
    table.place(v, best_pe, best_cb);
    obs.count("remap.placements");
  }
  flush_profile();
  flush_tally();
  if (obs.metrics != nullptr) {
    obs.metrics->add("an.evaluations", an_evaluations);
    obs.metrics->add("remap.slots_scanned", slots_scanned);
  }

  // The remap may have vacated the leading rows; pull everything up (a
  // uniform shift preserves every constraint).
  table.set_length(std::max(table.length(), table.occupied_length()));
  table.compact_leading();

  // PSL padding: the smallest cyclic length satisfying every loop-carried
  // communication ("the algorithm will assign empty control steps to
  // compensate the communication requirements").
  const int needed = min_feasible_length(g, table, comm);
  obs.count("psl.evaluations");
  if (needed < 0) {
    // An intra-iteration constraint is broken — only reachable with
    // kAnticipationOnly, whose successor dependences are unchecked.
    obs.count("psl.rejections");
    obs.emit(PslPadEvent{needed, table.length()});
    return {false, table.length()};
  }
  table.set_length(std::max(table.occupied_length(), needed));
  obs.emit(PslPadEvent{needed, table.length()});
  return {true, table.length()};
}

std::optional<ScheduleTable> remap_rotated(
    const Csdfg& g, const ScheduleTable& table, const CommModel& comm,
    const std::vector<NodeId>& rotated, int previous_length,
    RemapPolicy policy, RemapSelection selection, const ObsContext& obs,
    RemapStats* tally) {
  CCS_EXPECTS(previous_length >= 1);
  const ObsSpan remap_span = obs.span("remap");

  const int first_target = std::max(1, previous_length - 1);
  int last_target = previous_length;
  if (policy == RemapPolicy::kWithRelaxation) {
    // A generous sufficient target: the whole shifted table, every rotated
    // task serialized after it, and one worst-case transfer of slack.  If
    // even this fails, the input table was not a valid schedule.
    long long cap = previous_length + 1 +
                    worst_edge_cost(g, comm, table.num_pes());
    int max_speed = 1;
    for (PeId p = 0; p < table.num_pes(); ++p)
      max_speed = std::max(max_speed, table.pe_speed(p));
    for (NodeId v : rotated) cap += g.node(v).time * max_speed;
    last_target = static_cast<int>(
        std::min<long long>(cap, std::numeric_limits<int>::max() / 2));
  }

  for (int target = first_target; target <= last_target; ++target) {
    ScheduleTable attempt = table;
    if (attempt.length() > target) continue;
    const ObsSpan target_span = obs.span("remap.target");
    obs.count("remap.target_attempts");
    obs.emit(RemapTargetEvent{target, target > previous_length});
    RemapResult r = try_remap(g, attempt, comm, rotated, target, selection,
                              obs, tally);
    if (!r.success) continue;
    if (policy == RemapPolicy::kWithoutRelaxation &&
        r.length > previous_length) {
      // The placement succeeded but the PSL padding overshot the budget.
      obs.count("psl.rejections");
      continue;
    }
    return attempt;
  }
  return std::nullopt;
}

CycloCompactionResult cyclo_compact(const Csdfg& g, const Topology& topo,
                                    const CommModel& comm,
                                    const CycloCompactionOptions& options) {
  CCS_EXPECTS(!options.budget.active());
  g.require_legal();
  const ScheduleTable startup =
      start_up_schedule(g, topo, comm, options.startup);
  const int passes = options.passes > 0
                         ? options.passes
                         : 3 * static_cast<int>(std::max<std::size_t>(
                                   1, g.node_count()));

  CycloCompactionResult result{g,       Retiming(g.node_count()),
                               startup, startup,
                               {},      0,
                               {},      {}};
  Csdfg graph = g;
  ScheduleTable table = startup;
  Retiming total(g.node_count());
  for (int pass = 1; pass <= passes; ++pass) {
    const int previous_length = table.length();
    if (previous_length <= 0) break;
    Csdfg rotated_graph = graph;
    ScheduleTable shifted = table;
    Retiming rotated_total = total;
    const std::vector<NodeId> rotated =
        rotate_first_row(rotated_graph, shifted, &rotated_total);
    std::optional<ScheduleTable> remapped = remap_rotated(
        rotated_graph, shifted, comm, rotated, previous_length,
        options.policy, options.selection, {}, &result.remap_stats);
    if (!remapped) {
      result.length_trace.push_back(previous_length);
      break;
    }
    graph = std::move(rotated_graph);
    table = std::move(*remapped);
    total = rotated_total;
    result.length_trace.push_back(table.length());
    if (table.length() < result.best.length()) {
      result.best = table;
      result.retimed_graph = graph;
      result.retiming = total;
      result.best_pass = pass;
    }
  }
  return result;
}

}  // namespace ccs::referee
