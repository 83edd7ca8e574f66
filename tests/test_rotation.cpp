// Unit tests for the rotation phase (Definition 4.1 / Lemma 4.1).
#include <gtest/gtest.h>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class RotationTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
  ScheduleTable startup_ = start_up_schedule(g_, mesh_, comm_);
};

TEST_F(RotationTest, FirstRotationExtractsAAndRetimesIt) {
  RemapEngine engine(g_, comm_);
  engine.bind(startup_);
  const auto rotated = engine.rotate();
  ASSERT_EQ(rotated, std::vector<NodeId>{g_.node_by_name("A")});
  EXPECT_EQ(engine.retiming().of(g_.node_by_name("A")), 1);
  // Figure 1(c): D->A drops to 2, A's out-edges gain one delay each.
  const Csdfg& g = engine.graph();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    const std::string from = g.node(ed.from).name;
    const std::string to = g.node(ed.to).name;
    if (from == "D" && to == "A") {
      EXPECT_EQ(ed.delay, 2);
    }
    if (from == "A") {
      EXPECT_EQ(ed.delay, 1);
    }
  }
  EXPECT_TRUE(g.is_legal());
}

TEST_F(RotationTest, TableShiftsUpAndShrinksByOne) {
  RemapEngine engine(g_, comm_);
  engine.bind(startup_);
  const int before = startup_.length();
  (void)engine.rotate();
  EXPECT_EQ(engine.length(), before - 1);
  const ScheduleTable t = engine.table();
  EXPECT_EQ(t.length(), before - 1);
  EXPECT_FALSE(t.is_placed(g_.node_by_name("A")));
  EXPECT_EQ(t.cb(g_.node_by_name("B")), 1);
  EXPECT_EQ(t.cb(g_.node_by_name("C")), 2);
  EXPECT_EQ(t.cb(g_.node_by_name("F")), 6);
}

TEST_F(RotationTest, SecondRotationTakesTheNewFirstRow) {
  RemapEngine first(g_, comm_);
  first.bind(startup_);
  (void)first.rotate();
  // Rotation requires a complete table: put A back by hand (pe2 at step 5
  // is free and dependence-safe for this purpose) and continue from there.
  ScheduleTable t = first.table();
  t.place(g_.node_by_name("A"), 1, 5);
  RemapEngine second(first.graph(), comm_);
  second.bind(t);
  const auto rotated = second.rotate();
  ASSERT_EQ(rotated, std::vector<NodeId>{g_.node_by_name("B")});
  // B's incoming A->B had gained a delay in rotation 1; it returns to 0.
  const Csdfg& g = second.graph();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (g.node(ed.from).name == "A" && g.node(ed.to).name == "B") {
      EXPECT_EQ(ed.delay, 0);
    }
    if (g.node(ed.from).name == "B") {
      EXPECT_GE(ed.delay, 1);
    }
  }
  EXPECT_TRUE(g.is_legal());
}

TEST_F(RotationTest, RotationPreservesIterationStructure) {
  // Rotation is a retiming: cycle delay sums are invariant.
  RemapEngine engine(g_, comm_);
  engine.bind(startup_);
  const long long total_before = g_.total_delay();
  (void)engine.rotate();
  // Total delay may change (A has 3 out-edges vs 1 in-edge) but legality
  // and per-cycle sums hold; spot-check the E-F cycle: F->E=1, E->F=0.
  EXPECT_TRUE(engine.graph().is_legal());
  EXPECT_EQ(total_before + 2, engine.graph().total_delay());  // +3 out, -1 in
}

TEST_F(RotationTest, MultipleStartersRotateTogether) {
  // Put two independent tasks in row 1 and rotate: both extracted.
  Csdfg g;
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  const NodeId c = g.add_node("c", 1);
  g.add_edge(a, c, 0, 1);
  g.add_edge(b, c, 0, 1);
  g.add_edge(c, a, 1, 1);
  g.add_edge(c, b, 2, 1);
  ScheduleTable t(g, 2);
  t.place(a, 0, 1);
  t.place(b, 1, 1);
  t.place(c, 0, 2);
  RemapEngine engine(g, comm_);
  engine.bind(t);
  const auto rotated = engine.rotate();
  EXPECT_EQ(rotated, (std::vector<NodeId>{a, b}));
  EXPECT_EQ(engine.table().cb(c), 1);
  EXPECT_EQ(engine.length(), 1);
  // c->a delay 1 drained to 0; a->c gained 1 (and symmetrically for b).
  const Csdfg& rg = engine.graph();
  EXPECT_EQ(rg.edge(0).delay, 1);  // a->c
  EXPECT_EQ(rg.edge(2).delay, 0);  // c->a
  EXPECT_EQ(rg.edge(3).delay, 1);  // c->b
}

TEST_F(RotationTest, AccumulatedRetimingComposesAcrossRotations) {
  RemapEngine first(g_, comm_);
  first.bind(startup_);
  (void)first.rotate();
  ScheduleTable t = first.table();
  t.place(g_.node_by_name("A"), 1, 5);  // complete the table between passes
  RemapEngine second(first.graph(), comm_);
  second.bind(t);
  (void)second.rotate();
  // Applying the composed retiming to the *original* graph must equal the
  // doubly-rotated graph.
  Csdfg replay = g_;
  (first.retiming() + second.retiming()).apply(replay);
  for (EdgeId e = 0; e < replay.edge_count(); ++e)
    EXPECT_EQ(replay.edge(e).delay, second.graph().edge(e).delay);
}

TEST_F(RotationTest, EmptyFirstRowIsAPureShift) {
  Csdfg g;
  const NodeId a = g.add_node("a", 1);
  g.add_edge(a, a, 1, 1);
  ScheduleTable t(g, 1);
  t.place(a, 0, 2);
  t.set_length(3);
  RemapEngine engine(g, comm_);
  engine.bind(t);
  const auto rotated = engine.rotate();
  EXPECT_TRUE(rotated.empty());
  EXPECT_EQ(engine.table().cb(a), 1);
  EXPECT_EQ(engine.length(), 2);
  EXPECT_EQ(engine.graph().edge(0).delay, 1);  // untouched
}

}  // namespace
}  // namespace ccs
