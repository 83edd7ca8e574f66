// Unit tests for the CSDFG data structure (Section 2 definitions).
#include <gtest/gtest.h>

#include "core/csdfg.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {
namespace {

Csdfg two_node_loop() {
  Csdfg g("loop");
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 2);
  g.add_edge(a, b, 0, 1);
  g.add_edge(b, a, 1, 2);
  return g;
}

TEST(Csdfg, BuildsNodesAndEdges) {
  const Csdfg g = two_node_loop();
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.node(0).name, "a");
  EXPECT_EQ(g.node(1).time, 2);
  EXPECT_EQ(g.edge(1).delay, 1);
  EXPECT_EQ(g.edge(1).volume, 2u);
  EXPECT_EQ(g.name(), "loop");
}

TEST(Csdfg, AdjacencyIsInInsertionOrder) {
  Csdfg g;
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  const NodeId c = g.add_node("c", 1);
  const EdgeId e1 = g.add_edge(a, b, 0);
  const EdgeId e2 = g.add_edge(a, c, 0);
  const EdgeId e3 = g.add_edge(b, c, 1);
  ASSERT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.out_edges(a)[0], e1);
  EXPECT_EQ(g.out_edges(a)[1], e2);
  ASSERT_EQ(g.in_edges(c).size(), 2u);
  EXPECT_EQ(g.in_edges(c)[0], e2);
  EXPECT_EQ(g.in_edges(c)[1], e3);
  EXPECT_TRUE(g.in_edges(a).empty());
}

TEST(Csdfg, SynthesizesEmptyNames) {
  Csdfg g;
  g.add_node("", 1);
  EXPECT_EQ(g.node(0).name, "v0");
}

TEST(Csdfg, NodeByNameFindsAndRejects) {
  const Csdfg g = two_node_loop();
  EXPECT_EQ(g.node_by_name("b"), 1u);
  EXPECT_THROW((void)g.node_by_name("zz"), GraphError);
  Csdfg dup;
  dup.add_node("x", 1);
  dup.add_node("x", 1);
  EXPECT_THROW((void)dup.node_by_name("x"), GraphError);
}

TEST(Csdfg, RejectsInvalidNodesAndEdges) {
  Csdfg g;
  EXPECT_THROW(g.add_node("bad", 0), GraphError);
  EXPECT_THROW(g.add_node("bad", -3), GraphError);
  const NodeId a = g.add_node("a", 1);
  EXPECT_THROW(g.add_edge(a, 7, 0, 1), GraphError);   // endpoint range
  EXPECT_THROW(g.add_edge(a, a, -1, 1), GraphError);  // negative delay
  EXPECT_THROW(g.add_edge(a, a, 0, 1), GraphError);   // zero-delay self-loop
  EXPECT_THROW(g.add_edge(a, a, 1, 0), GraphError);   // zero volume
  EXPECT_NO_THROW(g.add_edge(a, a, 1, 1));            // delayed self-loop ok
}

TEST(Csdfg, SetDelayEnforcesInvariants) {
  Csdfg g = two_node_loop();
  g.set_delay(1, 4);
  EXPECT_EQ(g.edge(1).delay, 4);
  EXPECT_THROW(g.set_delay(1, -1), GraphError);
  Csdfg s;
  const NodeId a = s.add_node("a", 1);
  const EdgeId self = s.add_edge(a, a, 2, 1);
  EXPECT_THROW(s.set_delay(self, 0), GraphError);
}

TEST(Csdfg, TotalsAggregate) {
  const Csdfg g = two_node_loop();
  EXPECT_EQ(g.total_computation(), 3);
  EXPECT_EQ(g.total_delay(), 1);
}

TEST(Csdfg, LegalityDetectsZeroDelayCycles) {
  Csdfg g;
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  g.add_edge(a, b, 0, 1);
  EXPECT_TRUE(g.is_legal());
  g.add_edge(b, a, 0, 1);  // zero-delay cycle a->b->a
  EXPECT_FALSE(g.is_legal());
  EXPECT_THROW(g.require_legal(), GraphError);
  // Giving the back edge a delay restores legality.
  g.set_delay(1, 1);
  EXPECT_TRUE(g.is_legal());
  EXPECT_NO_THROW(g.require_legal());
}

TEST(Csdfg, LegalityHandlesLongerCycles) {
  Csdfg g;
  for (int i = 0; i < 4; ++i)
    g.add_node(std::string("n").append(std::to_string(i)), 1);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 0);
  g.add_edge(2, 3, 0);
  g.add_edge(3, 0, 0);
  EXPECT_FALSE(g.is_legal());
  g.set_delay(3, 2);
  EXPECT_TRUE(g.is_legal());
}

TEST(Csdfg, ParallelEdgesAreAllowed) {
  Csdfg g;
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  g.add_edge(a, b, 0, 1);
  g.add_edge(a, b, 2, 3);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_edges(a).size(), 2u);
}

TEST(Csdfg, AccessorsAreContractChecked) {
  const Csdfg g = two_node_loop();
  EXPECT_THROW((void)g.node(5), ContractViolation);
  EXPECT_THROW((void)g.edge(5), ContractViolation);
  EXPECT_THROW((void)g.out_edges(5), ContractViolation);
}

}  // namespace
}  // namespace ccs
