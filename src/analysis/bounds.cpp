// ccsched — static lower-bound passes (see bounds.hpp for the contract).
//
// Every derivation below is proved against the master constraint the
// validator enforces for an edge u --(d,c)--> v with u on PE a, v on PE b:
//
//     CB(v) + d·L >= CE(u) + M(a,b,c) + 1,   CE(x) = CB(x) + t(x)·s_px - 1,
//     1 <= CB(x), CE(x) <= L,                M(a,a,·) = 0, M >= 0,
//
// plus disjoint occupancy per PE (span t·s, or 1 issue slot when
// pipelined).  Summing the constraint around a cycle C telescopes the
// CB/CE terms away and leaves the cycle-sum inequality
//
//     L · d(C) >= sum_v t(v)·s_pv + sum_e M_e        (any mode),
//
// the backbone of CCS-B001/B004/B005.  The validator models communication
// as pure latency (no link contention), so all transfer floors here are
// latency floors — a literal bandwidth/bisection argument would claim more
// than the certifier checks and be unsound against it.
//
// Witness payload layouts (BoundResult::data):
//   CCS-B001  [t(C), d(C), e0, e1, ...]               cycle edges in order
//   CCS-B002  [T, s_min, longest_term, work_term]      work_term 0 if n/a
//   CCS-B003  [n, P]
//   CCS-B004  [t(C), d(C), |C|, mc1, mc2, unsplit, split, e0, e1, ...]
//   CCS-B005  [q, fit_A, fit_B, fit_all, minsplit]     q = fast-side size
//   CCS-B006  [phi_min, s_min]

#include "analysis/bounds.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "core/graph_algo.hpp"
#include "core/iteration_bound.hpp"
#include "core/retiming.hpp"
#include "obs/span.hpp"
#include "util/contracts.hpp"

namespace ccs {
namespace {

long long ceil_div(long long a, long long b) {
  CCS_EXPECTS(b > 0);
  return (a + b - 1) / b;
}

int as_bound(long long v) {
  return static_cast<int>(std::min<long long>(v, 1'000'000'000));
}

/// Minimal L such that the PEs whose slowdown factors are `speeds` can
/// host `work` units of computation: occupancy gives each PE p capacity
/// floor(L / s_p) time units, so we binary-search the smallest L with
/// sum_p floor(L / s_p) >= work.  Pipelined PEs host one task per step
/// regardless of speed — the caller passes task COUNT as `work` and gets
/// ceil(work / |speeds|).
long long fit_length(const std::vector<int>& speeds, long long work,
                     bool pipelined) {
  CCS_EXPECTS(!speeds.empty());
  if (work <= 0) return 0;
  if (pipelined)
    return ceil_div(work, static_cast<long long>(speeds.size()));
  const int fastest = *std::min_element(speeds.begin(), speeds.end());
  long long lo = 1, hi = work * fastest;
  const auto fits = [&](long long len) {
    long long capacity = 0;
    for (int s : speeds) {
      capacity += len / s;
      if (capacity >= work) return true;
    }
    return false;
  };
  while (lo < hi) {
    const long long mid = lo + (hi - lo) / 2;
    if (fits(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// Memoizes min_cross_cost per distinct volume (O(P^2) each).
class MinCostCache {
public:
  MinCostCache(const CommModel* comm, std::size_t num_pes)
      : comm_(comm), num_pes_(num_pes) {}

  [[nodiscard]] CommCost get(std::size_t volume) {
    if (comm_ == nullptr || num_pes_ < 2) return 0;
    const auto it = memo_.find(volume);
    if (it != memo_.end()) return it->second;
    const CommCost c = min_cross_cost(*comm_, num_pes_, volume);
    memo_.emplace(volume, c);
    return c;
  }

private:
  const CommModel* comm_;
  std::size_t num_pes_;
  std::map<std::size_t, CommCost> memo_;
};

/// Checks that `edges` is a closed walk of `g` and returns its time/delay
/// totals (time = sum of t over the source node of each edge, which counts
/// every node of a simple cycle exactly once).
bool closed_walk_totals(const Csdfg& g, const std::vector<EdgeId>& edges,
                        long long& total_time, long long& total_delay) {
  if (edges.empty()) return false;
  total_time = 0;
  total_delay = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i] >= g.edge_count()) return false;
    const Edge& e = g.edge(edges[i]);
    const Edge& next = g.edge(edges[(i + 1) % edges.size()]);
    if (e.to != next.from) return false;
    total_time += g.node(e.from).time;
    total_delay += e.delay;
  }
  return total_delay >= 1;
}

std::vector<EdgeId> edges_from_data(const std::vector<long long>& data,
                                    std::size_t offset) {
  std::vector<EdgeId> edges;
  for (std::size_t i = offset; i < data.size(); ++i)
    edges.push_back(static_cast<EdgeId>(data[i]));
  return edges;
}

// ---------------------------------------------------------------------------
// CCS-B001 — ceil'd iteration bound with critical-cycle witness.
//
// Cycle-sum with s >= 1 and M >= 0: L·d(C) >= t(C), so L >= ceil(t(C)/d(C))
// for every cycle; the critical cycle maximizes the ratio.  Uses only
// cycle totals — retiming preserves d(C) (the r terms telescope), so the
// bound survives any legal retiming.
// ---------------------------------------------------------------------------
class IterationBoundPass final : public BoundPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return *find_rule("CCS-B001");
  }

  [[nodiscard]] std::optional<BoundResult> run(
      const GraphFacts& facts,
      const BoundMachine& /*machine*/) const override {
    const Csdfg& g = facts.graph();
    const CycleWitness& cyc = facts.critical_cycle();
    if (cyc.edges.empty()) return std::nullopt;
    BoundResult r;
    r.code = rule().code;
    r.value = as_bound(ceil_div(cyc.total_time, cyc.total_delay));
    r.invariant = true;
    std::ostringstream w;
    w << "critical cycle " << describe_cycle(g, cyc) << "; L >= ceil("
      << cyc.total_time << "/" << cyc.total_delay << ") = " << r.value;
    r.witness = w.str();
    r.data = {cyc.total_time, cyc.total_delay};
    for (EdgeId e : cyc.edges) r.data.push_back(static_cast<long long>(e));
    return r;
  }

  [[nodiscard]] bool reverify(const Csdfg& g, const BoundMachine& /*machine*/,
                              const BoundResult& result) const override {
    if (result.data.size() < 3) return false;
    long long t = 0, d = 0;
    if (!closed_walk_totals(g, edges_from_data(result.data, 2), t, d))
      return false;
    return t == result.data[0] && d == result.data[1] &&
           result.value == as_bound(ceil_div(t, d));
  }
};

// ---------------------------------------------------------------------------
// CCS-B002 — speed-aware work conservation + longest task.
//
// Non-pipelined occupancy: tasks on PE p serialize, so p contributes at
// most floor(L/s_p) time units; the machine must absorb T total units —
// the satellite fix for the speed-ignoring ceil(T/P) the old
// schedule_lower_bound used (homogeneous machines reduce to exactly
// ceil(T/P)).  In BOTH modes CE(v) <= L forces t(v)·s_pv <= L, so the
// longest task on the fastest PE floors the length.  Work totals, task
// times, and speeds are untouched by retiming.
// ---------------------------------------------------------------------------
class WorkConservationPass final : public BoundPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return *find_rule("CCS-B002");
  }

  [[nodiscard]] std::optional<BoundResult> run(
      const GraphFacts& facts, const BoundMachine& machine) const override {
    const Csdfg& g = facts.graph();
    if (g.node_count() == 0) return std::nullopt;
    const long long s_min = machine.min_speed();
    long long longest = 0;
    for (NodeId v = 0; v < g.node_count(); ++v)
      longest = std::max(longest, static_cast<long long>(g.node(v).time));
    longest *= s_min;
    const long long total = g.total_computation();
    long long work = 0;
    if (!machine.pipelined) {
      std::vector<int> speeds(machine.num_pes, 1);
      if (!machine.speeds.empty()) speeds = machine.speeds;
      work = fit_length(speeds, total, /*pipelined=*/false);
    }
    BoundResult r;
    r.code = rule().code;
    r.value = as_bound(std::max(longest, work));
    r.invariant = true;
    std::ostringstream w;
    w << "total work " << total << " over " << machine.num_pes
      << " PE(s) needs L >= " << work << "; longest task costs "
      << longest << " on the fastest PE (speed " << s_min << ")";
    r.witness = w.str();
    r.data = {total, s_min, longest, work};
    return r;
  }

  [[nodiscard]] bool reverify(const Csdfg& g, const BoundMachine& machine,
                              const BoundResult& result) const override {
    const std::optional<BoundResult> again = run(g, machine);
    return again && again->value == result.value &&
           again->data == result.data;
  }
};

// ---------------------------------------------------------------------------
// CCS-B003 — pipelined issue slots: n tasks, one issue step each, P PEs.
// ---------------------------------------------------------------------------
class PipelinedIssuePass final : public BoundPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return *find_rule("CCS-B003");
  }

  [[nodiscard]] std::optional<BoundResult> run(
      const GraphFacts& facts, const BoundMachine& machine) const override {
    const Csdfg& g = facts.graph();
    if (!machine.pipelined || g.node_count() == 0) return std::nullopt;
    const long long n = static_cast<long long>(g.node_count());
    const long long p = static_cast<long long>(machine.num_pes);
    BoundResult r;
    r.code = rule().code;
    r.value = as_bound(ceil_div(n, p));
    r.invariant = true;
    std::ostringstream w;
    w << n << " tasks need ceil(" << n << "/" << p
      << ") = " << r.value << " issue steps on " << p
      << " pipelined PE(s)";
    r.witness = w.str();
    r.data = {n, p};
    return r;
  }

  [[nodiscard]] bool reverify(const Csdfg& g, const BoundMachine& machine,
                              const BoundResult& result) const override {
    if (result.data.size() != 2) return false;
    return machine.pipelined &&
           result.data[0] == static_cast<long long>(g.node_count()) &&
           result.data[1] == static_cast<long long>(machine.num_pes) &&
           result.value ==
               as_bound(ceil_div(result.data[0], result.data[1]));
  }
};

// ---------------------------------------------------------------------------
// CCS-B004 — communication-aware critical-cycle mapping bound.
//
// Take the critical cycle C.  Any schedule either
//  (a) maps all of C to one PE: non-pipelined occupancy serializes it,
//      L >= t(C)·s_min; pipelined, occupancy gives L >= |C| and the
//      cycle-sum (M = 0 inside one PE) gives L >= ceil(t(C)·s_min/d(C));
//  (b) maps C across >= 2 PEs: a closed walk leaves and re-enters every
//      PE it visits, so >= 2 of C's edges cross PEs, each paying at least
//      the cheapest transfer for its volume; the cycle-sum then gives
//      L >= ceil((t(C)·s_min + mc1 + mc2) / d(C)).
// The schedule picks whichever is cheaper, so min(a, b) is the floor.
// Self-loops (|C| = 1) and single-PE machines cannot split.  All inputs
// (cycle totals, volumes, speeds) are retiming-invariant.
// ---------------------------------------------------------------------------
class CriticalCycleMappingPass final : public BoundPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return *find_rule("CCS-B004");
  }

  [[nodiscard]] std::optional<BoundResult> run(
      const GraphFacts& facts, const BoundMachine& machine) const override {
    const CycleWitness& cyc = facts.critical_cycle();
    if (cyc.edges.empty()) return std::nullopt;
    MinCostCache costs(machine.comm, machine.num_pes);
    return derive(facts.graph(), machine, cyc.edges, costs);
  }

  [[nodiscard]] bool reverify(const Csdfg& g, const BoundMachine& machine,
                              const BoundResult& result) const override {
    if (result.data.size() < 8) return false;
    MinCostCache costs(machine.comm, machine.num_pes);
    const std::optional<BoundResult> again =
        derive(g, machine, edges_from_data(result.data, 7), costs);
    return again && again->value == result.value &&
           again->data == result.data;
  }

private:
  [[nodiscard]] static std::optional<BoundResult> derive(
      const Csdfg& g, const BoundMachine& machine,
      const std::vector<EdgeId>& edges, MinCostCache& costs) {
    long long t_c = 0, d_c = 0;
    if (!closed_walk_totals(g, edges, t_c, d_c)) return std::nullopt;
    const long long s_min = machine.min_speed();
    const long long size = static_cast<long long>(edges.size());
    const long long unsplit =
        machine.pipelined ? std::max(size, ceil_div(t_c * s_min, d_c))
                          : t_c * s_min;
    // Two cheapest possible transfers among C's edges (a split cycle
    // crosses PEs at least twice).
    long long mc1 = 0, mc2 = 0;
    long long split = unsplit;
    const bool can_split = machine.num_pes >= 2 && edges.size() >= 2;
    if (can_split) {
      std::vector<long long> edge_costs;
      edge_costs.reserve(edges.size());
      for (EdgeId e : edges)
        edge_costs.push_back(costs.get(g.edge(e).volume));
      std::sort(edge_costs.begin(), edge_costs.end());
      mc1 = edge_costs[0];
      mc2 = edge_costs[1];
      split = ceil_div(t_c * s_min + mc1 + mc2, d_c);
    }
    BoundResult r;
    r.code = "CCS-B004";
    r.value = as_bound(std::min(unsplit, split));
    r.invariant = true;
    std::ostringstream w;
    w << "critical cycle (t=" << t_c << ", d=" << d_c << ", |C|=" << size
      << "): on one PE L >= " << unsplit;
    if (can_split)
      w << ", split across PEs L >= ceil((" << t_c << "*" << s_min << " + "
        << mc1 << " + " << mc2 << ")/" << d_c << ") = " << split;
    else
      w << " (cannot split)";
    w << "; floor " << r.value;
    r.witness = w.str();
    r.data = {t_c, d_c, size, mc1, mc2, unsplit, split};
    for (EdgeId e : edges) r.data.push_back(static_cast<long long>(e));
    return r;
  }
};

// ---------------------------------------------------------------------------
// CCS-B005 — topology cut bound (NOT retiming-invariant).
//
// Sort PEs fastest-first and cut the machine after the q fastest.  A
// schedule of a weakly connected graph with >= 2 tasks either keeps all
// work on one side (work-conservation on that side's capacity) or places
// tasks on both sides — then some dependence edge joins tasks on
// DIFFERENT PEs, and the per-edge window of the master constraint
// (CB(v) <= L - t(v)·s + 1 and CE(u) >= t(u)·s) yields
// L·(d(e)+1) >= s_min·(t(u)+t(v)) + mincost(c(e)).  The d(e) in that
// denominator is exactly what retiming redistributes, so this pass only
// feeds the local composite.
// ---------------------------------------------------------------------------
class TopologyCutPass final : public BoundPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return *find_rule("CCS-B005");
  }

  [[nodiscard]] std::optional<BoundResult> run(
      const GraphFacts& facts, const BoundMachine& machine) const override {
    const Csdfg& g = facts.graph();
    if (machine.comm == nullptr || machine.num_pes < 2 ||
        g.node_count() < 2 || !weakly_connected(g))
      return std::nullopt;
    const long long s_min = machine.min_speed();
    MinCostCache costs(machine.comm, machine.num_pes);
    long long minsplit = -1;
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
      const Edge& e = g.edge(eid);
      if (e.from == e.to) continue;  // a self-loop never crosses PEs
      const long long lhs =
          s_min * (static_cast<long long>(g.node(e.from).time) +
                   g.node(e.to).time) +
          costs.get(e.volume);
      const long long b = ceil_div(lhs, static_cast<long long>(e.delay) + 1);
      if (minsplit < 0 || b < minsplit) minsplit = b;
    }
    if (minsplit < 0) return std::nullopt;  // only self-loops: unreachable
                                            // with n >= 2 + connectivity
    std::vector<int> speeds(machine.num_pes, 1);
    if (!machine.speeds.empty()) speeds = machine.speeds;
    std::vector<std::size_t> order(machine.num_pes);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return speeds[a] != speeds[b] ? speeds[a] < speeds[b] : a < b;
    });
    const long long work = machine.pipelined
                               ? static_cast<long long>(g.node_count())
                               : g.total_computation();
    const long long fit_all = fit_length(speeds, work, machine.pipelined);
    long long best = 0;
    long long best_q = 0, best_a = 0, best_b = 0;
    for (std::size_t q = 1; q < machine.num_pes; ++q) {
      std::vector<int> side_a, side_b;
      for (std::size_t i = 0; i < machine.num_pes; ++i)
        (i < q ? side_a : side_b).push_back(speeds[order[i]]);
      const long long fit_a = fit_length(side_a, work, machine.pipelined);
      const long long fit_b = fit_length(side_b, work, machine.pipelined);
      const long long cut =
          std::min({fit_a, fit_b, std::max(fit_all, minsplit)});
      if (cut > best) {
        best = cut;
        best_q = static_cast<long long>(q);
        best_a = fit_a;
        best_b = fit_b;
      }
    }
    if (best <= 0) return std::nullopt;
    BoundResult r;
    r.code = rule().code;
    r.value = as_bound(best);
    r.invariant = false;
    std::ostringstream w;
    w << "cut after the " << best_q << " fastest PE(s): one-side fits need L >= "
      << std::min(best_a, best_b) << ", crossing any edge needs L >= "
      << minsplit << " in its delay window; floor " << r.value
      << " (this delay placement only)";
    r.witness = w.str();
    r.data = {best_q, best_a, best_b, fit_all, minsplit};
    return r;
  }

  [[nodiscard]] bool reverify(const Csdfg& g, const BoundMachine& machine,
                              const BoundResult& result) const override {
    const std::optional<BoundResult> again = run(g, machine);
    return again && again->value == result.value &&
           again->data == result.data;
  }
};

// ---------------------------------------------------------------------------
// CCS-B006 — retiming-feasibility bound.
//
// Chaining the master constraint along any ZERO-delay path telescopes to
// CE(last) >= s_min × (path time), and CE <= L — so L >= s_min × the
// zero-delay critical path of whatever retimed graph actually gets
// scheduled.  Minimizing over every legal retiming (d_r(e) >= 0 — the
// Leiserson–Saxe feasibility system) gives a floor no retiming can beat:
// L >= s_min × Phi_min.  Invariant by construction.
// ---------------------------------------------------------------------------
class RetimingFeasibilityPass final : public BoundPass {
public:
  [[nodiscard]] const LintRule& rule() const override {
    return *find_rule("CCS-B006");
  }

  [[nodiscard]] std::optional<BoundResult> run(
      const GraphFacts& facts, const BoundMachine& machine) const override {
    if (facts.graph().node_count() == 0) return std::nullopt;
    const long long phi = facts.min_period();
    const long long s_min = machine.min_speed();
    BoundResult r;
    r.code = rule().code;
    r.value = as_bound(phi * s_min);
    r.invariant = true;
    std::ostringstream w;
    w << "minimum clock period over all legal retimings (d_r(e) >= 0) is "
      << phi << "; L >= " << phi << " * " << s_min << " = " << r.value;
    r.witness = w.str();
    r.data = {phi, s_min};
    return r;
  }

  [[nodiscard]] bool reverify(const Csdfg& g, const BoundMachine& machine,
                              const BoundResult& result) const override {
    if (result.data.size() != 2) return false;
    const long long phi = min_period_retiming(g, iteration_bound(g)).period;
    return phi == result.data[0] &&
           result.data[1] == machine.min_speed() &&
           result.value == as_bound(phi * result.data[1]);
  }
};

const IterationBoundPass kIterationBound;
const WorkConservationPass kWorkConservation;
const PipelinedIssuePass kPipelinedIssue;
const CriticalCycleMappingPass kCriticalCycleMapping;
const TopologyCutPass kTopologyCut;
const RetimingFeasibilityPass kRetimingFeasibility;

}  // namespace

int BoundMachine::min_speed() const {
  if (speeds.empty()) return 1;
  return *std::min_element(speeds.begin(), speeds.end());
}

BoundMachine machine_view(const Topology& topo, const CommModel& comm,
                          const CycloCompactionOptions& options) {
  const StartUpOptions& startup = options.startup;
  CCS_EXPECTS(startup.pe_speeds.empty() ||
              startup.pe_speeds.size() == topo.size());
  return {topo.size(), startup.pe_speeds, startup.pipelined_pes, &comm};
}

BoundMachine machine_view(const ScheduleTable& table, const CommModel& comm) {
  return {table.num_pes(), table.pe_speeds(), table.pipelined_pes(), &comm};
}

const std::vector<const BoundPass*>& bound_passes() {
  static const std::vector<const BoundPass*> kPasses{
      &kIterationBound,      &kWorkConservation, &kPipelinedIssue,
      &kCriticalCycleMapping, &kTopologyCut,     &kRetimingFeasibility,
  };
  return kPasses;
}

const BoundResult* CompositeBound::part(std::string_view code) const {
  for (const BoundResult& r : parts)
    if (r.code == code) return &r;
  return nullptr;
}

CompositeBound compute_bounds(const GraphFacts& facts,
                              const BoundMachine& machine) {
  // No ObsContext parameter: the span rides the process-global profiler
  // hook, like the certifier's phases.
  const ObsSpan span(SpanProfiler::process(), "bounds");
  CCS_EXPECTS(machine.num_pes >= 1);
  facts.graph().require_legal();
  CompositeBound out;
  for (const BoundPass* pass : bound_passes()) {
    std::optional<BoundResult> r = pass->run(facts, machine);
    if (!r) continue;
    if (r->invariant && r->value > out.value) {
      out.value = r->value;
      out.dominant = r->code;
    }
    if (r->value > out.local_value) {
      out.local_value = r->value;
      out.dominant_local = r->code;
    }
    out.parts.push_back(std::move(*r));
  }
  if (out.local_value < out.value) {  // unreachable; keep the contract
    out.local_value = out.value;
    out.dominant_local = out.dominant;
  }
  return out;
}

CompositeBound compute_bounds(const GraphFacts& facts, const Topology& topo,
                              const CommModel& comm,
                              const CycloCompactionOptions& options) {
  return compute_bounds(facts, machine_view(topo, comm, options));
}

void report_bounds(const CompositeBound& composite, const SourceSpan& span,
                   DiagnosticBag& bag) {
  for (const BoundResult& r : composite.parts) {
    std::ostringstream msg;
    msg << "lower bound " << r.value;
    if (!r.invariant) msg << " (this delay placement only)";
    msg << ": " << r.witness;
    bag.add(r.code, span, msg.str());
  }
}

}  // namespace ccs
