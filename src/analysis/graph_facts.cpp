#include "analysis/graph_facts.hpp"

#include "core/retiming.hpp"
#include "obs/span.hpp"
#include "util/contracts.hpp"

namespace ccs {

GraphFacts GraphFacts::retimed(const Csdfg& retimed,
                               const GraphFacts& original) {
  CCS_EXPECTS(retimed.node_count() == original.graph().node_count() &&
              retimed.edge_count() == original.graph().edge_count());
  GraphFacts view(retimed);
  view.original_ = &original;
  return view;
}

const CycleWitness& GraphFacts::critical_cycle() const {
  if (original_ != nullptr) return original_->critical_cycle();
  if (!critical_cycle_) {
    const ObsSpan span(SpanProfiler::process(), "facts.cycle_ratio");
    critical_cycle_ = ccs::critical_cycle(*g_);
  }
  return *critical_cycle_;
}

long long GraphFacts::min_period() const {
  if (original_ != nullptr) return original_->min_period();
  if (!min_period_) {
    const Rational bound = iteration_bound();  // under its own span
    const ObsSpan span(SpanProfiler::process(), "facts.min_period");
    min_period_ = min_period_retiming(*g_, bound).period;
  }
  return *min_period_;
}

const DagTiming& GraphFacts::dag_timing() const {
  if (!dag_timing_) {
    const ObsSpan span(SpanProfiler::process(), "facts.dag_timing");
    dag_timing_ = compute_dag_timing(*g_);
  }
  return *dag_timing_;
}

}  // namespace ccs
