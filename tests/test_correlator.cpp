// Tests for the Leiserson–Saxe correlator — the canonical retiming story
// reproduced end to end on this library's machinery.
#include <gtest/gtest.h>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/critical_cycle.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/graph_algo.hpp"
#include "core/iteration_bound.hpp"
#include "core/retiming.hpp"
#include "core/validator.hpp"
#include "util/contracts.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

TEST(Correlator, StructureMatchesTheClassicExample) {
  const Csdfg g = correlator(3);
  EXPECT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_EQ(g.total_delay(), 3);  // the three chain registers
  EXPECT_TRUE(g.is_legal());
  EXPECT_THROW((void)correlator(0), ContractViolation);
}

TEST(Correlator, OriginalClockPeriodIsTheAdderChain) {
  // Zero-delay critical path: c3 -> a3 -> a2 -> a1 -> host
  //                         = 3 + 7 + 7 + 7 + 1 = 25
  // (Leiserson-Saxe report 24 with a zero-weight host; ours must weigh 1).
  EXPECT_EQ(clock_period(correlator(3)), 25);
}

TEST(Correlator, MinPeriodRetimingCollapsesTheChain) {
  // LS reach period 13 with a zero-weight host; with the host weighing 1
  // the same retimings land at 13 or 14.  The iteration bound floors it:
  // cycle host->c1->a1->host: t = 11 over d = 1.
  const Csdfg g = correlator(3);
  EXPECT_EQ(iteration_bound(g), (Rational{11, 1}));
  const MinPeriodResult r = min_period_retiming(g, iteration_bound(g));
  EXPECT_GE(r.period, 11);
  EXPECT_LE(r.period, 14);
  Csdfg retimed = g;
  r.retiming.apply(retimed);
  EXPECT_EQ(clock_period(retimed), r.period);
}

TEST(Correlator, CriticalCycleIsTheShortHostLoop) {
  const CycleWitness c = critical_cycle(correlator(3));
  EXPECT_EQ(c.ratio(), (Rational{11, 1}));
  EXPECT_EQ(c.total_delay, 1);
  EXPECT_EQ(c.edges.size(), 3u);  // host -> c1 -> a1 -> host
}

TEST(Correlator, BoundIsTapIndependentBeyondOne) {
  // Every host->ck->ak->...->host cycle adds 10 time and 1 delay per tap:
  // ratio (1 + 3k + 7k)/k = 10 + 1/k, maximized at k = 1.
  for (std::size_t taps : {1u, 2u, 4u, 6u})
    EXPECT_EQ(iteration_bound(correlator(taps)), (Rational{11, 1})) << taps;
}

TEST(Correlator, CycloCompactionApproachesTheBound) {
  const Csdfg g = correlator(3);
  const Topology cc = make_complete(4);
  const StoreAndForwardModel comm(cc);
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  const auto res = cyclo_compact(g, cc, comm, opt);
  EXPECT_TRUE(validate_schedule(res.retimed_graph, res.best, comm).ok());
  EXPECT_GE(res.best_length(), 11);   // the iteration bound
  EXPECT_LE(res.best_length(), 2 * 11);  // and within 2x of it
  EXPECT_LT(res.best_length(), res.startup_length());
}

}  // namespace
}  // namespace ccs
