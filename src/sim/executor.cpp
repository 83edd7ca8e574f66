#include "sim/executor.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>

#include "util/contracts.hpp"

namespace ccs {

namespace {

struct LinkClock {
  std::map<std::pair<PeId, PeId>, long long> free_at;

  long long traverse(const std::vector<PeId>& path, long long depart,
                     std::size_t volume, bool contended) {
    long long t = depart;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (contended) {
        auto& slot = free_at[{path[h], path[h + 1]}];
        const long long start = std::max(t, slot);
        slot = start + static_cast<long long>(volume);
        t = slot;
      } else {
        t += static_cast<long long>(volume);
      }
    }
    return t;
  }
};

/// Evaluation order for one self-timed iteration: a linear extension of the
/// zero-delay data edges plus the per-processor CB chains.  On a valid
/// table this is simply CB order; on an arbitrary table the combined
/// constraints may be cyclic — a genuine deadlock under blocking receives —
/// in which case nullopt is returned.
std::optional<std::vector<NodeId>> self_timed_order(
    const Csdfg& g, const ScheduleTable& table) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<NodeId>> succ(n);
  std::vector<std::size_t> indeg(n, 0);
  auto add_edge = [&](NodeId a, NodeId b) {
    succ[a].push_back(b);
    ++indeg[b];
  };
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    if (e.delay == 0 && e.from != e.to) add_edge(e.from, e.to);
  }
  // Per-PE chains in CB order.
  std::vector<std::vector<NodeId>> on_pe(table.num_pes());
  for (NodeId v = 0; v < n; ++v) on_pe[table.pe(v)].push_back(v);
  for (auto& chain : on_pe) {
    std::stable_sort(chain.begin(), chain.end(), [&](NodeId a, NodeId b) {
      if (table.cb(a) != table.cb(b)) return table.cb(a) < table.cb(b);
      return a < b;
    });
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      add_edge(chain[i], chain[i + 1]);
  }
  // Kahn with (cb, id) priority for determinism.
  auto later = [&](NodeId a, NodeId b) {
    if (table.cb(a) != table.cb(b)) return table.cb(a) > table.cb(b);
    return a > b;
  };
  std::priority_queue<NodeId, std::vector<NodeId>, decltype(later)> ready(
      later);
  for (NodeId v = 0; v < n; ++v)
    if (indeg[v] == 0) ready.push(v);
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (NodeId w : succ[v])
      if (--indeg[w] == 0) ready.push(w);
  }
  if (order.size() != n) return std::nullopt;  // deadlock
  return order;
}

enum class Mode { kStatic, kSelfTimed };

ExecutionStats run(const Csdfg& g, const ScheduleTable& table,
                   const Topology& topo, const ExecutorOptions& options,
                   Mode mode, const ObsContext& obs) {
  CCS_EXPECTS(table.complete());
  CCS_EXPECTS(options.iterations >= 1);
  CCS_EXPECTS(options.warmup >= 0 && options.warmup < options.iterations);
  const ObsSpan sim_span = obs.span("simulate");

  const int K = options.iterations;
  const std::size_t n = g.node_count();
  const int L = table.length();
  const ShortestPathRouter default_router(topo);
  const Router& router = options.router ? *options.router : default_router;

  // Fault injection is a static-mode feature (the callers enforce it); an
  // empty plan behaves exactly like no plan.
  const FaultPlan* faults =
      mode == Mode::kStatic && options.faults != nullptr &&
              !options.faults->empty()
          ? options.faults
          : nullptr;

  ExecutionStats stats;
  stats.iteration_finish.assign(static_cast<std::size_t>(K), 0);

  // Effective execution time under jitter; never below one control step.
  const auto duration_of = [&](NodeId v, PeId pe) {
    int t = table.time_on(v, pe);
    if (faults != nullptr) t = std::max(1, t + faults->jitter_of(v));
    return t;
  };

  // Evaluation order within one iteration.
  std::vector<NodeId> order;
  if (mode == Mode::kSelfTimed) {
    auto maybe = self_timed_order(g, table);
    if (!maybe) {
      stats.deadlocked = true;
      obs.count("sim.deadlocks");
      SimRunEvent ev;
      ev.mode = "self-timed";
      ev.iterations = K;
      ev.deadlocked = true;
      obs.emit(ev);
      return stats;
    }
    order = std::move(*maybe);
  } else {
    // Static starts are fixed; evaluation order is irrelevant to the
    // results, so plain CB order keeps traces readable.
    order.resize(n);
    for (NodeId v = 0; v < n; ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      if (table.cb(a) != table.cb(b)) return table.cb(a) < table.cb(b);
      return a < b;
    });
  }

  // finish[i*n + v] = absolute cycle at which iteration i of v completes.
  // In static mode every finish is known a priori.
  std::vector<long long> finish(static_cast<std::size_t>(K) * n, 0);
  if (mode == Mode::kStatic) {
    for (int i = 0; i < K; ++i)
      for (NodeId v = 0; v < n; ++v)
        finish[static_cast<std::size_t>(i) * n + v] =
            static_cast<long long>(i) * L + table.cb(v) +
            duration_of(v, table.pe(v)) - 1;
  }

  std::vector<long long> pe_free(topo.size(), 0);
  LinkClock links;

  // instance_ok[i*n + v] = instance (i, v) ran and its output exists.
  // Only fault injection can clear entries.
  std::vector<char> instance_ok(static_cast<std::size_t>(K) * n, 1);
  std::vector<char> pe_fault_reported(topo.size(), 0);
  std::set<std::pair<PeId, PeId>> link_fault_reported;
  const auto mark_failure = [&](int iteration) {
    if (stats.first_failure_iteration < 0)
      stats.first_failure_iteration = iteration;
  };

  // Jitter directives take effect from the first instance: report them up
  // front, once each.
  if (faults != nullptr) {
    for (const JitterFault& j : faults->jitters) {
      ++stats.faults_injected;
      obs.count("sim.faults");
      obs.emit(FaultEvent{"jitter", 0, 0, j.node, 0,
                          "t(" + g.node(j.node).name + ") " +
                              (j.delta >= 0 ? "+" : "") +
                              std::to_string(j.delta)});
    }
  }

  for (int i = 0; i < K; ++i) {
    long long iter_finish = 0;
    for (NodeId v : order) {
      const PeId pv = table.pe(v);

      if (faults != nullptr) {
        // Fail-stop processor: the instance never runs.
        if (faults->pe_dead(pv, i)) {
          instance_ok[static_cast<std::size_t>(i) * n + v] = 0;
          ++stats.failed_instances;
          mark_failure(i);
          if (!pe_fault_reported[pv]) {
            pe_fault_reported[pv] = 1;
            ++stats.faults_injected;
            obs.count("sim.faults");
            obs.emit(FaultEvent{"fail_stop", pv, 0, 0, i,
                                "p" + std::to_string(pv) +
                                    " fail-stop; first lost instance: " +
                                    g.node(v).name});
          }
          continue;
        }
        // Starvation: a missing operand (dead producer upstream) or a
        // message lost on a dead link keeps the instance from running.
        bool starved = false;
        for (EdgeId eid : g.in_edges(v)) {
          const Edge& e = g.edge(eid);
          const int src_iter = i - e.delay;
          if (src_iter < 0) continue;  // initial token, always present
          if (!instance_ok[static_cast<std::size_t>(src_iter) * n + e.from]) {
            starved = true;
            break;
          }
          const PeId pu = table.pe(e.from);
          if (pu == pv) continue;
          const std::vector<PeId> path = router.route(pu, pv);
          for (std::size_t h = 0; h + 1 < path.size(); ++h) {
            if (!faults->link_dead(path[h], path[h + 1], i)) continue;
            ++stats.lost_messages;
            const PeId a = std::min(path[h], path[h + 1]);
            const PeId b = std::max(path[h], path[h + 1]);
            if (link_fault_reported.insert({a, b}).second) {
              ++stats.faults_injected;
              obs.count("sim.faults");
              obs.emit(FaultEvent{"link_down", a, b, 0, i,
                                  "message " + g.node(e.from).name + "->" +
                                      g.node(e.to).name + " lost"});
            }
            starved = true;
            break;
          }
          if (starved) break;
        }
        if (starved) {
          instance_ok[static_cast<std::size_t>(i) * n + v] = 0;
          ++stats.starved_instances;
          mark_failure(i);
          continue;
        }
      }

      // Latest operand arrival across incoming edges.
      long long arrival = 0;
      for (EdgeId eid : g.in_edges(v)) {
        const Edge& e = g.edge(eid);
        const int src_iter = i - e.delay;
        if (src_iter < 0) continue;  // initial token, present from cycle 0
        const long long produced =
            finish[static_cast<std::size_t>(src_iter) * n + e.from];
        const PeId pu = table.pe(e.from);
        long long at = produced;
        if (pu != pv) {
          at = links.traverse(router.route(pu, pv), produced, e.volume,
                              options.link_contention &&
                                  mode == Mode::kSelfTimed);
          stats.total_messages += 1;
          stats.total_traffic +=
              static_cast<long long>(topo.distance(pu, pv)) *
              static_cast<long long>(e.volume);
        }
        arrival = std::max(arrival, at);
      }

      long long start;
      if (mode == Mode::kStatic) {
        start = static_cast<long long>(i) * L + table.cb(v);
        if (arrival + 1 > start) stats.late_arrivals += 1;
      } else {
        start = std::max({pe_free[pv] + 1, arrival + 1, 1LL});
      }
      const long long done = start + duration_of(v, pv) - 1;
      if (mode == Mode::kSelfTimed) {
        finish[static_cast<std::size_t>(i) * n + v] = done;
        pe_free[pv] = done;
      }
      if (options.record_trace)
        stats.trace.push_back({v, i, pv, start, done});
      iter_finish = std::max(iter_finish, done);
    }
    stats.iteration_finish[static_cast<std::size_t>(i)] = iter_finish;
  }

  // With faults an iteration can lose every instance (finish 0), so the
  // makespan is the maximum over iterations, not the last one.
  stats.makespan = *std::max_element(stats.iteration_finish.begin(),
                                     stats.iteration_finish.end());
  if (K - 1 > options.warmup) {
    stats.steady_initiation_interval =
        static_cast<double>(
            stats.iteration_finish.back() -
            stats.iteration_finish[static_cast<std::size_t>(options.warmup)]) /
        static_cast<double>(K - 1 - options.warmup);
  } else {
    stats.steady_initiation_interval =
        static_cast<double>(stats.makespan) / static_cast<double>(K);
  }

  if (obs.metrics != nullptr) {
    obs.metrics->add("sim.instances",
                     static_cast<long long>(K) * static_cast<long long>(n));
    obs.metrics->add("sim.messages", stats.total_messages);
    obs.metrics->add("sim.late_arrivals", stats.late_arrivals);
    obs.metrics->set("sim.steady_ii", stats.steady_initiation_interval);
    if (faults != nullptr) {
      obs.metrics->add("sim.failed_instances", stats.failed_instances);
      obs.metrics->add("sim.starved_instances", stats.starved_instances);
      obs.metrics->add("sim.lost_messages", stats.lost_messages);
    }
  }
  if (obs.tracing()) {
    SimRunEvent ev;
    ev.mode = mode == Mode::kStatic ? "static" : "self-timed";
    ev.iterations = K;
    ev.makespan = stats.makespan;
    ev.steady_ii = stats.steady_initiation_interval;
    ev.messages = stats.total_messages;
    ev.late_arrivals = stats.late_arrivals;
    obs.emit(ev);
  }
  return stats;
}

}  // namespace

ExecutionStats execute_static(const Csdfg& g, const ScheduleTable& table,
                              const Topology& topo,
                              const ExecutorOptions& options,
                              const ObsContext& obs) {
  return run(g, table, topo, options, Mode::kStatic, obs);
}

ExecutionStats execute_self_timed(const Csdfg& g, const ScheduleTable& table,
                                  const Topology& topo,
                                  const ExecutorOptions& options,
                                  const ObsContext& obs) {
  CCS_EXPECTS(options.faults == nullptr || options.faults->empty());
  return run(g, table, topo, options, Mode::kSelfTimed, obs);
}

}  // namespace ccs
