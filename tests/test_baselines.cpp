// Unit tests for the baseline schedulers the paper compares against.
#include <gtest/gtest.h>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/baselines.hpp"
#include "core/iteration_bound.hpp"
#include "core/retiming.hpp"
#include "core/validator.hpp"
#include "sim/executor.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class BaselineTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
};

TEST_F(BaselineTest, ObliviousListScheduleIsCompleteButCommBlind) {
  const ScheduleTable t = oblivious_list_schedule(g_, mesh_);
  EXPECT_TRUE(t.complete());
  // Blind to transport: C lands one step earlier than the aware schedule
  // allows, so the true-model validator rejects the table.
  EXPECT_FALSE(validate_schedule(g_, t, comm_).ok());
  // Under a free network it is a perfectly good schedule.
  EXPECT_TRUE(validate_schedule(g_, t, ZeroCommModel{}).ok());
}

TEST_F(BaselineTest, ObliviousRotationCompactsUnderZeroModel) {
  const auto res = rotation_scheduling_no_comm(g_, mesh_);
  EXPECT_LE(res.best_length(), res.startup_length());
  EXPECT_TRUE(
      validate_schedule(res.retimed_graph, res.best, ZeroCommModel{}).ok());
}

TEST_F(BaselineTest, SelfTimedPricingPenalizesObliviousPlacements) {
  // The honest comparison of Section 1's survey: an oblivious schedule,
  // executed with real transport, sustains a worse initiation interval than
  // its own (fictitious) length claims.
  const auto res = rotation_scheduling_no_comm(g_, mesh_);
  const ExecutionStats honest =
      execute_self_timed(res.retimed_graph, res.best, mesh_, {});
  EXPECT_GE(honest.steady_initiation_interval,
            static_cast<double>(res.best_length()));
}

TEST_F(BaselineTest, RetimeThenScheduleIsValidUnderTrueModel) {
  const auto res = retime_then_schedule(g_, mesh_, comm_);
  EXPECT_TRUE(res.table.complete());
  EXPECT_TRUE(validate_schedule(res.retimed_graph, res.table, comm_).ok());
  EXPECT_EQ(res.min_period,
            min_period_retiming(g_, iteration_bound(g_)).period);
  EXPECT_EQ(clock_period(res.retimed_graph), res.min_period);
}

TEST_F(BaselineTest, RetimeThenScheduleHelpsOnSerialGraphs) {
  // The elliptic filter's DAG view is a pure chain; min-period retiming
  // breaks it up, so one communication-aware list pass gets a shorter
  // startup than scheduling the original graph.
  const Topology cc = make_complete(8);
  const StoreAndForwardModel m(cc);
  const Csdfg g = elliptic_filter();
  const auto baseline = retime_then_schedule(g, cc, m);
  const ScheduleTable plain = start_up_schedule(g, cc, m);
  EXPECT_LT(baseline.table.length(), plain.length());
}

}  // namespace
}  // namespace ccs
