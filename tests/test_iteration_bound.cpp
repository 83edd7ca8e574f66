// Unit tests for the exact iteration bound (max cycle ratio).
#include <gtest/gtest.h>

#include "core/iteration_bound.hpp"
#include "cycle_ratio_referee.hpp"
#include "util/error.hpp"
#include "workloads/library.hpp"
#include "workloads/transforms.hpp"

namespace ccs {
namespace {

TEST(IterationBound, AcyclicGraphHasZeroBound) {
  Csdfg g;
  g.add_node("a", 5);
  g.add_node("b", 2);
  g.add_edge(0, 1, 0, 1);
  EXPECT_EQ(iteration_bound(g), (Rational{0, 1}));
}

TEST(IterationBound, DelayedEdgesWithoutCycleStillZero) {
  Csdfg g;
  g.add_node("a", 3);
  g.add_node("b", 4);
  g.add_edge(0, 1, 2, 1);  // delay but no cycle
  EXPECT_EQ(iteration_bound(g), (Rational{0, 1}));
}

TEST(IterationBound, SimpleLoopIsComputationOverDelay) {
  Csdfg g;
  g.add_node("a", 3);
  g.add_node("b", 2);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 2, 1);  // cycle: t=5, d=2
  const Rational b = iteration_bound(g);
  EXPECT_EQ(b, (Rational{5, 2}));
  EXPECT_DOUBLE_EQ(b.value(), 2.5);
}

TEST(IterationBound, SelfLoopBound) {
  Csdfg g;
  g.add_node("a", 4);
  g.add_edge(0, 0, 2, 1);
  EXPECT_EQ(iteration_bound(g), (Rational{2, 1}));
}

TEST(IterationBound, PicksTheMaximumOverCycles) {
  Csdfg g;
  g.add_node("a", 1);
  g.add_node("b", 1);
  g.add_node("c", 6);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 1, 1);  // ratio 2/1
  g.add_edge(1, 2, 0, 1);
  g.add_edge(2, 1, 3, 1);  // ratio 7/3
  EXPECT_EQ(iteration_bound(g), (Rational{7, 3}));
}

TEST(IterationBound, PaperExampleSixIsThree) {
  // Cycles of Figure 1(b): A-B-D-A (t=4, d=3 -> 4/3) and E-F-E (t=3, d=1).
  EXPECT_EQ(iteration_bound(paper_example6()), (Rational{3, 1}));
}

TEST(IterationBound, InvariantUnderSlowdownScaling) {
  // c-slowdown multiplies every cycle's delay by c: bound divides by c.
  const Csdfg g = paper_example6();
  const Rational b = iteration_bound(g);
  const Rational b3 = iteration_bound(slowdown(g, 3));
  EXPECT_EQ(b3, (Rational{b.num, b.den * 3}));
  // Scaling times by 3 multiplies the bound by 3.
  const Rational t3 = iteration_bound(scale_times(g, 3));
  EXPECT_EQ(t3, (Rational{b.num * 3, b.den}));
}

TEST(IterationBound, RationalReducedToLowestTerms) {
  Csdfg g;
  g.add_node("a", 4);
  g.add_node("b", 2);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 4, 1);  // 6/4 -> 3/2
  const Rational b = iteration_bound(g);
  EXPECT_EQ(b.num, 3);
  EXPECT_EQ(b.den, 2);
  EXPECT_EQ(b.to_string(), "3/2");
}

TEST(IterationBound, IllegalGraphRejected) {
  Csdfg g;
  g.add_node("a", 1);
  g.add_node("b", 1);
  g.add_edge(0, 1, 0, 1);
  g.add_edge(1, 0, 0, 1);
  EXPECT_THROW((void)iteration_bound(g), GraphError);
}

TEST(IterationBound, KnownBoundsOfLibraryGraphs) {
  // lattice: the AF_1->MB_1->AB_1->MF_2->AF_2 cycle carries one delay: 7/1.
  EXPECT_EQ(iteration_bound(lattice_filter()), (Rational{7, 1}));
  // biquad: w -> a1w -> s1? a1w feeds s1 feeds w; loop w->a1w->s1->w:
  // t = 1+2+1 = 4 over d=1; the d=2 loop w->a2w->w is (1+2+1)/2 = 2.
  EXPECT_EQ(iteration_bound(iir_biquad_cascade(1)), (Rational{4, 1}));
}

TEST(CycleRatioAbove, MatchesBoundSemantics) {
  const Csdfg g = paper_example6();  // bound = 3
  EXPECT_TRUE(referee::has_cycle_ratio_above(g, 2, 1));
  EXPECT_TRUE(referee::has_cycle_ratio_above(g, 29, 10));
  // Not strictly above:
  EXPECT_FALSE(referee::has_cycle_ratio_above(g, 3, 1));
  EXPECT_FALSE(referee::has_cycle_ratio_above(g, 31, 10));
}

}  // namespace
}  // namespace ccs
