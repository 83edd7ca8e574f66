#include "core/baselines.hpp"

#include "core/iteration_bound.hpp"
#include "core/list_scheduler.hpp"
#include "core/retiming.hpp"

namespace ccs {

ScheduleTable oblivious_list_schedule(const Csdfg& g, const Topology& topo) {
  ZeroCommModel zero;
  StartUpOptions options;
  options.comm_aware = false;
  return start_up_schedule(g, topo, zero, options);
}

CycloCompactionResult rotation_scheduling_no_comm(const Csdfg& g,
                                                  const Topology& topo) {
  ZeroCommModel zero;
  CycloCompactionOptions options;
  options.policy = RemapPolicy::kWithRelaxation;
  return cyclo_compact(g, topo, zero, options);
}

RetimeThenScheduleResult retime_then_schedule(const Csdfg& g,
                                              const Topology& topo,
                                              const CommModel& comm) {
  const MinPeriodResult mp = min_period_retiming(g, iteration_bound(g));
  Csdfg retimed = g;
  mp.retiming.apply(retimed);
  ScheduleTable table = start_up_schedule(retimed, topo, comm);
  return {std::move(retimed), std::move(table), mp.period};
}

}  // namespace ccs
