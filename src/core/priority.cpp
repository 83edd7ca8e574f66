#include "core/priority.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace ccs {

long long priority_pf(const Csdfg& g, const ScheduleTable& table,
                      const DagTiming& timing, NodeId v, int cs_cur) {
  CCS_EXPECTS(v < g.node_count());
  long long comm_term = 0;
  for (EdgeId eid : g.in_edges(v)) {
    const Edge& e = g.edge(eid);
    if (e.delay != 0) continue;  // loop-carried: previous iteration
    if (!table.is_placed(e.from)) continue;
    const long long ce_u = table.ce(e.from);
    // m - (cs_cur - (CE(u)+1)): the transfer volume discounted by how long
    // v has already waited past its producer.
    comm_term = std::max(comm_term, static_cast<long long>(e.volume) -
                                        (cs_cur - (ce_u + 1)));
  }
  const long long mobility = timing.alap_cb[v] - cs_cur;
  return comm_term - mobility;
}

long long priority_value(PriorityRule rule, const Csdfg& g,
                         const ScheduleTable& table, const DagTiming& timing,
                         NodeId v, int cs_cur) {
  switch (rule) {
    case PriorityRule::kCommunicationSensitive:
      return priority_pf(g, table, timing, v, cs_cur);
    case PriorityRule::kMobilityOnly:
      return -(timing.alap_cb[v] - cs_cur);
    case PriorityRule::kFifo:
      return -static_cast<long long>(v);
  }
  CCS_ASSERT(false);
  return std::numeric_limits<long long>::min();
}

}  // namespace ccs
