// Unit tests for the schedule table data structure.
#include <gtest/gtest.h>

#include <vector>

#include "core/schedule.hpp"
#include "util/contracts.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class ScheduleTableTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();  // A,C,D,F: t=1; B,E: t=2
  NodeId A_ = g_.node_by_name("A"), B_ = g_.node_by_name("B"),
         C_ = g_.node_by_name("C"), D_ = g_.node_by_name("D"),
         E_ = g_.node_by_name("E"), F_ = g_.node_by_name("F");
};

TEST_F(ScheduleTableTest, PlaceAndQuery) {
  ScheduleTable t(g_, 4);
  EXPECT_EQ(t.length(), 0);
  EXPECT_FALSE(t.complete());
  t.place(A_, 0, 1);
  t.place(B_, 0, 2);
  EXPECT_TRUE(t.is_placed(A_));
  EXPECT_EQ(t.cb(B_), 2);
  EXPECT_EQ(t.ce(B_), 3);  // t(B)=2
  EXPECT_EQ(t.pe(B_), 0u);
  EXPECT_EQ(t.length(), 3);
  EXPECT_EQ(t.occupied_length(), 3);
  EXPECT_EQ(t.placed_count(), 2u);
}

TEST_F(ScheduleTableTest, MultiCycleTasksOccupyTheirSpan) {
  ScheduleTable t(g_, 2);
  t.place(B_, 1, 3);  // occupies (pe1, cs3..4)
  EXPECT_FALSE(t.is_free(1, 3, 3));
  EXPECT_FALSE(t.is_free(1, 4, 4));
  EXPECT_TRUE(t.is_free(1, 2, 2));
  EXPECT_TRUE(t.is_free(1, 5, 9));
  EXPECT_TRUE(t.is_free(0, 3, 4));
  EXPECT_EQ(t.occupant(1, 4), std::optional<NodeId>{B_});
  EXPECT_EQ(t.occupant(1, 5), std::nullopt);
}

TEST_F(ScheduleTableTest, PipelinedPesOccupyOnlyIssueSlot) {
  ScheduleTable t(g_, 2, /*pipelined_pes=*/true);
  t.place(B_, 0, 3);
  EXPECT_FALSE(t.is_free(0, 3, 3));
  EXPECT_TRUE(t.is_free(0, 4, 4));  // pipelined: next task may issue at 4
  EXPECT_EQ(t.ce(B_), 4);           // CE still reflects execution time
  EXPECT_EQ(t.length(), 4);
}

TEST_F(ScheduleTableTest, FirstFreeSkipsOccupiedSpans) {
  ScheduleTable t(g_, 1);
  t.place(B_, 0, 2);  // occupies 2..3
  EXPECT_EQ(t.first_free(0, 1, 1), 1);
  EXPECT_EQ(t.first_free(0, 2, 1), 4);
  // A 2-cycle task starting at 1 would collide at 2: first fit is 4.
  EXPECT_EQ(t.first_free(0, 1, 2), 4);
  EXPECT_EQ(t.first_free(0, 7, 2), 7);
}

TEST_F(ScheduleTableTest, PlacePreconditionsAreChecked) {
  ScheduleTable t(g_, 2);
  t.place(A_, 0, 1);
  EXPECT_THROW(t.place(A_, 1, 1), ContractViolation);  // already placed
  EXPECT_THROW(t.place(C_, 0, 1), ContractViolation);  // occupied
  EXPECT_THROW(t.place(C_, 5, 1), ContractViolation);  // PE range
  EXPECT_THROW(t.place(C_, 0, 0), ContractViolation);  // cb >= 1
}

TEST_F(ScheduleTableTest, RemoveFreesTheSlot) {
  ScheduleTable t(g_, 2);
  t.place(B_, 0, 1);
  t.remove(B_);
  EXPECT_FALSE(t.is_placed(B_));
  EXPECT_TRUE(t.is_free(0, 1, 2));
  EXPECT_EQ(t.placed_count(), 0u);
  // Length is not shrunk by removal (callers renormalize explicitly).
  EXPECT_EQ(t.length(), 2);
  t.place(C_, 0, 1);  // slot reusable
  EXPECT_EQ(t.cb(C_), 1);
}

TEST_F(ScheduleTableTest, NodesStartingAtFiltersByCb) {
  ScheduleTable t(g_, 3);
  t.place(A_, 0, 1);
  t.place(C_, 1, 1);
  t.place(B_, 2, 2);
  EXPECT_EQ(t.nodes_starting_at(1), (std::vector<NodeId>{A_, C_}));
  EXPECT_EQ(t.nodes_starting_at(2), (std::vector<NodeId>{B_}));
  EXPECT_TRUE(t.nodes_starting_at(3).empty());  // B continues but starts at 2
}

TEST_F(ScheduleTableTest, ShiftUpRenumbersEverything) {
  ScheduleTable t(g_, 2);
  t.place(A_, 0, 2);
  t.place(B_, 1, 3);
  t.set_length(5);
  t.shift_up();
  EXPECT_EQ(t.cb(A_), 1);
  EXPECT_EQ(t.cb(B_), 2);
  EXPECT_EQ(t.length(), 4);
  EXPECT_EQ(t.occupant(1, 2), std::optional<NodeId>{B_});
  EXPECT_EQ(t.occupant(1, 4), std::nullopt);
}

TEST_F(ScheduleTableTest, ShiftUpRequiresEmptyFirstRow) {
  ScheduleTable t(g_, 2);
  t.place(A_, 0, 1);
  EXPECT_THROW(t.shift_up(), ContractViolation);
}

TEST_F(ScheduleTableTest, CompactLeadingRemovesAllLeadingEmptyRows) {
  ScheduleTable t(g_, 2);
  t.place(B_, 0, 4);
  t.place(C_, 1, 5);
  t.set_length(7);
  EXPECT_EQ(t.compact_leading(), 3);
  EXPECT_EQ(t.cb(B_), 1);
  EXPECT_EQ(t.cb(C_), 2);
  EXPECT_EQ(t.length(), 4);
  // Idempotent once a task starts at row 1.
  EXPECT_EQ(t.compact_leading(), 0);
}

TEST_F(ScheduleTableTest, SetLengthValidatesAgainstOccupancy) {
  ScheduleTable t(g_, 2);
  t.place(B_, 0, 2);  // occupied through 3
  t.set_length(10);
  EXPECT_EQ(t.length(), 10);
  t.set_length(3);
  EXPECT_EQ(t.length(), 3);
  EXPECT_THROW(t.set_length(2), ContractViolation);
}

TEST_F(ScheduleTableTest, PlacementsListsPlacedTasksAscending) {
  ScheduleTable t(g_, 2);
  t.place(D_, 0, 1);
  t.place(A_, 1, 1);
  const auto p = t.placements();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].first, A_);
  EXPECT_EQ(p[1].first, D_);
  EXPECT_EQ(p[1].second.pe, 0u);
}

TEST_F(ScheduleTableTest, TimeAccessorsMatchGraph) {
  ScheduleTable t(g_, 2);
  EXPECT_EQ(t.time(B_), 2);
  EXPECT_EQ(t.time(F_), 1);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.num_pes(), 2u);
}

// Equality is about the schedule, not how the table was built: the same
// placements, length, machine and task times compare equal; a different
// placement, length or set of PE speeds does not.
TEST_F(ScheduleTableTest, EqualityComparesTheSchedule) {
  ScheduleTable a(g_, 2);
  a.place(A_, 0, 1);
  a.place(B_, 1, 1);
  ScheduleTable b(g_, 2);
  b.place(B_, 1, 1);
  b.place(E_, 0, 5);  // grows b's rows, then leaves again
  b.remove(E_);
  b.set_length(2);
  b.place(A_, 0, 1);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a == ScheduleTable(a));

  ScheduleTable swapped(g_, 2);
  swapped.place(A_, 1, 1);
  swapped.place(B_, 0, 1);
  EXPECT_EQ(swapped.length(), a.length());
  EXPECT_FALSE(swapped == a);  // other PEs, same steps and length
  ScheduleTable later(g_, 2);
  later.place(A_, 0, 2);
  later.place(B_, 1, 1);
  EXPECT_EQ(later.length(), a.length());
  EXPECT_FALSE(later == a);  // same PEs, another step

  ScheduleTable longer = a;
  longer.set_length(3);
  EXPECT_FALSE(longer == a);

  ScheduleTable slow(g_, std::vector<int>{1, 2});
  slow.place(A_, 1, 1);  // A runs two steps on the slow PE
  slow.place(B_, 0, 1);
  EXPECT_EQ(slow.length(), swapped.length());
  EXPECT_FALSE(slow == swapped);
}

}  // namespace
}  // namespace ccs
