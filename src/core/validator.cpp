#include "core/validator.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "util/contracts.hpp"

namespace ccs {

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) os << '\n';
    os << violations[i].message;
  }
  return os.str();
}

ValidationReport validate_schedule(const Csdfg& g, const ScheduleTable& table,
                                   const CommModel& comm) {
  ValidationReport report;
  auto add = [&](Violation::Kind kind, const std::string& msg) {
    report.violations.push_back({kind, msg});
  };

  if (!g.is_legal())
    add(Violation::Kind::kIllegalGraph,
        "graph '" + g.name() + "' has a zero-delay cycle");

  const int L = table.length();

  // 1. Every task placed, inside the table.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!table.is_placed(v)) {
      add(Violation::Kind::kUnplacedTask,
          "task '" + g.node(v).name + "' is not in the table");
      continue;
    }
    const int cb = table.cb(v);
    const int ce = cb + g.node(v).time * table.pe_speed(table.pe(v)) - 1;
    if (cb < 1 || ce > L) {
      std::ostringstream os;
      os << "task '" << g.node(v).name << "' occupies steps [" << cb << ","
         << ce << "] outside table of length " << L;
      add(Violation::Kind::kOutOfTable, os.str());
    }
  }

  // 2. Resource exclusivity, recomputed from placements (the table's grid is
  //    not trusted).
  std::map<std::pair<PeId, int>, NodeId> occupancy;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!table.is_placed(v)) continue;
    const Placement p = table.placement(v);
    const int span =
        table.pipelined_pes() ? 1 : g.node(v).time * table.pe_speed(p.pe);
    for (int cs = p.cb; cs < p.cb + span; ++cs) {
      auto [it, inserted] = occupancy.insert({{p.pe, cs}, v});
      if (!inserted) {
        std::ostringstream os;
        os << "tasks '" << g.node(it->second).name << "' and '"
           << g.node(v).name << "' both occupy PE" << p.pe + 1 << " at step "
           << cs;
        add(table.pipelined_pes() ? Violation::Kind::kIssueConflict
                                  : Violation::Kind::kResourceConflict,
            os.str());
      }
    }
  }

  // 3. The master edge constraint.
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    if (!table.is_placed(e.from) || !table.is_placed(e.to)) continue;
    const long long k = e.delay;
    const long long ce_u = table.cb(e.from) +
                           g.node(e.from).time *
                               table.pe_speed(table.pe(e.from)) -
                           1;
    const long long cb_v = table.cb(e.to);
    const CommCost m = comm.cost(table.pe(e.from), table.pe(e.to), e.volume);
    if (cb_v + k * L < ce_u + m + 1) {
      std::ostringstream os;
      os << "edge " << g.node(e.from).name << "->" << g.node(e.to).name
         << " (delay " << k << ", volume " << e.volume << "): CB(v)+k*L = "
         << cb_v + k * L << " < CE(u)+M+1 = " << ce_u + m + 1 << " with M="
         << m << ", L=" << L;
      add(Violation::Kind::kDependence, os.str());
    }
  }

  // Deterministic report: order by (kind, message) and drop duplicates, so
  // callers can diff reports across runs and diagnostic bridges emit stable
  // output regardless of map iteration details above.
  const auto key = [](const Violation& v) {
    return std::tie(v.kind, v.message);
  };
  std::sort(report.violations.begin(), report.violations.end(),
            [&](const Violation& a, const Violation& b) {
              return key(a) < key(b);
            });
  report.violations.erase(
      std::unique(report.violations.begin(), report.violations.end(),
                  [&](const Violation& a, const Violation& b) {
                    return key(a) == key(b);
                  }),
      report.violations.end());

  return report;
}

int min_feasible_length(const Csdfg& g, const ScheduleTable& table,
                        const CommModel& comm) {
  CCS_EXPECTS(table.complete());
  long long needed = table.occupied_length();
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const Edge& e = g.edge(eid);
    const long long k = e.delay;
    const long long ce_u = table.cb(e.from) +
                           g.node(e.from).time *
                               table.pe_speed(table.pe(e.from)) -
                           1;
    const long long cb_v = table.cb(e.to);
    const CommCost m = comm.cost(table.pe(e.from), table.pe(e.to), e.volume);
    const long long slack = ce_u + m + 1 - cb_v;
    if (k == 0) {
      if (slack > 0) return -1;  // violated independently of L
    } else {
      // ceil(slack / k), only binding when positive.
      const long long bound = slack > 0 ? (slack + k - 1) / k : 0;
      needed = std::max(needed, bound);
    }
  }
  CCS_ENSURES(needed <= std::numeric_limits<int>::max());
  return static_cast<int>(needed);
}

int anticipation(const Csdfg& g, const ScheduleTable& table,
                 const CommModel& comm, NodeId v, PeId pe,
                 int target_length) {
  CCS_EXPECTS(v < g.node_count());
  CCS_EXPECTS(pe < table.num_pes());
  long long earliest = 1;
  for (EdgeId eid : g.in_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.from == v) continue;  // self-loop: constrains PSL, not the slot
    if (!table.is_placed(e.from)) continue;
    const long long m = comm.cost(table.pe(e.from), pe, e.volume);
    const long long bound = table.ce(e.from) + m + 1 -
                            static_cast<long long>(e.delay) * target_length;
    earliest = std::max(earliest, bound);
  }
  CCS_ENSURES(earliest <= std::numeric_limits<int>::max());
  return static_cast<int>(earliest);
}

int latest_start(const Csdfg& g, const ScheduleTable& table,
                 const CommModel& comm, NodeId v, PeId pe,
                 int target_length) {
  CCS_EXPECTS(v < g.node_count());
  CCS_EXPECTS(pe < table.num_pes());
  long long latest = target_length - table.time_on(v, pe) + 1;
  for (EdgeId eid : g.out_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.to == v) continue;  // self-loop
    if (!table.is_placed(e.to)) continue;
    const long long m = comm.cost(pe, table.pe(e.to), e.volume);
    // CB(w) + k*Lt >= CB(v) + t(v) - 1 + m + 1   =>   CB(v) <= bound.
    const long long bound = table.cb(e.to) +
                            static_cast<long long>(e.delay) * target_length -
                            m - table.time_on(v, pe);
    latest = std::min(latest, bound);
  }
  latest = std::min<long long>(latest, std::numeric_limits<int>::max());
  latest = std::max<long long>(latest, std::numeric_limits<int>::min() + 1);
  return static_cast<int>(latest);
}

}  // namespace ccs
