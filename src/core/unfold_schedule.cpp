#include "core/unfold_schedule.hpp"

#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace ccs {

UnfoldedScheduleResult unfold_and_compact(const Csdfg& g, int factor,
                                          const Topology& topo,
                                          const CommModel& comm,
                                          const CycloCompactionOptions& options) {
  Unfolded unfolded = unfold(g, factor);
  CycloCompactionResult run = cyclo_compact(unfolded.graph, topo, comm, options);
  return {factor, std::move(unfolded), std::move(run)};
}

ScheduleTable unfold_table(const ScheduleTable& table, const Unfolded& unfolded,
                           int factor) {
  CCS_EXPECTS(factor >= 1);
  CCS_EXPECTS(table.complete());
  CCS_EXPECTS(table.occupied_length() <= table.length());
  CCS_EXPECTS(unfolded.copy_of.size() == table.node_count());

  ScheduleTable flat(unfolded.graph, table.pe_speeds(), table.pipelined_pes());

  const int L = table.length();
  for (const auto& [v, p] : table.placements())
    for (int j = 0; j < factor; ++j)
      flat.place(unfolded.copy_of[v][static_cast<std::size_t>(j)], p.pe,
                 p.cb + j * L);
  flat.set_length(factor * L);
  return flat;
}

}  // namespace ccs
