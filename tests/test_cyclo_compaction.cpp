// Integration-level tests of the full cyclo-compaction algorithm
// (Section 4), including the paper's walkthrough and Theorem 4.4.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/iteration_bound.hpp"
#include "core/validator.hpp"
#include "io/text_format.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class CycloTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
};

TEST_F(CycloTest, PaperWalkthroughSevenToFive) {
  // Figures 2-3: start-up length 7; cyclo-compaction reaches 5 within a few
  // passes (the paper reports 5 after its third iteration).
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithoutRelaxation;
  const auto res = cyclo_compact(g_, mesh_, comm_, opt);
  EXPECT_EQ(res.startup_length(), 7);
  EXPECT_LE(res.best_length(), 5);
  EXPECT_LE(res.best_pass, 3);
  EXPECT_TRUE(validate_schedule(res.retimed_graph, res.best, comm_).ok());
  EXPECT_TRUE(validate_schedule(g_, res.startup, comm_).ok());
}

TEST_F(CycloTest, RelaxationReachesTheIterationBoundHere) {
  // This graph's iteration bound is 3 (cycle E-F); with relaxation the
  // compactor finds a length-3 table on the 2x2 mesh.
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  const auto res = cyclo_compact(g_, mesh_, comm_, opt);
  EXPECT_EQ(res.best_length(), 3);
  EXPECT_TRUE(validate_schedule(res.retimed_graph, res.best, comm_).ok());
}

TEST_F(CycloTest, Theorem44MonotoneWithoutRelaxation) {
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithoutRelaxation;
  for (const Csdfg& g : {paper_example6(), paper_example19(),
                         lattice_filter(), diffeq_solver()}) {
    const auto res = cyclo_compact(g, mesh_, comm_, opt);
    int prev = res.startup_length();
    for (const int len : res.length_trace) {
      EXPECT_LE(len, prev) << g.name();
      prev = len;
    }
  }
}

TEST_F(CycloTest, BestNeverExceedsStartup) {
  for (auto policy :
       {RemapPolicy::kWithoutRelaxation, RemapPolicy::kWithRelaxation}) {
    CycloCompactionOptions opt;
    opt.policy = policy;
    const auto res = cyclo_compact(paper_example19(), mesh_, comm_, opt);
    EXPECT_LE(res.best_length(), res.startup_length());
  }
}

TEST_F(CycloTest, ScheduleLengthRespectsTheIterationBound) {
  // No static cyclic schedule can beat ceil(iteration bound).
  for (const Csdfg& g :
       {paper_example6(), paper_example19(), lattice_filter()}) {
    CycloCompactionOptions opt;
    opt.policy = RemapPolicy::kWithRelaxation;
    const auto res = cyclo_compact(g, mesh_, comm_, opt);
    const Rational b = iteration_bound(g);
    EXPECT_GE(static_cast<double>(res.best_length()) + 1e-9, b.value())
        << g.name();
  }
}

TEST_F(CycloTest, RetimingGluesGraphToSchedule) {
  // The reported retiming applied to the input graph must reproduce the
  // retimed graph the best schedule validates against.
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  const auto res = cyclo_compact(g_, mesh_, comm_, opt);
  Csdfg replay = g_;
  res.retiming.apply(replay);
  ASSERT_EQ(replay.edge_count(), res.retimed_graph.edge_count());
  for (EdgeId e = 0; e < replay.edge_count(); ++e)
    EXPECT_EQ(replay.edge(e).delay, res.retimed_graph.edge(e).delay);
}

TEST_F(CycloTest, ExplicitPassCountIsHonored) {
  CycloCompactionOptions opt;
  opt.passes = 2;
  const auto res = cyclo_compact(g_, mesh_, comm_, opt);
  EXPECT_LE(res.length_trace.size(), 2u);
}

TEST_F(CycloTest, TraceRecordsEveryPass) {
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  opt.passes = 10;
  const auto res = cyclo_compact(g_, mesh_, comm_, opt);
  EXPECT_EQ(res.length_trace.size(), 10u);
}

TEST_F(CycloTest, StalledStrictPassRepeatsPreviousValueAndEndsTrace) {
  // The documented length_trace contract: a pass that stalls (a
  // without-relaxation rollback) repeats the previous value and ends the
  // trace.  Sweep graph x topology; every config that ends early must obey
  // the contract, and at least one must actually stall so the test has
  // teeth (empirically all of these do).
  int stalls_seen = 0;
  const Topology topos[] = {make_linear_array(2), make_mesh(2, 2),
                            make_complete(4)};
  for (const Csdfg& g : {paper_example6(), paper_example19(),
                         lattice_filter(), diffeq_solver()}) {
    for (const Topology& topo : topos) {
      const StoreAndForwardModel comm(topo);
      CycloCompactionOptions opt;
      opt.policy = RemapPolicy::kWithoutRelaxation;
      opt.passes = 3 * static_cast<int>(g.node_count());
      const auto res = cyclo_compact(g, topo, comm, opt);
      const auto& trace = res.length_trace;
      ASSERT_FALSE(trace.empty()) << g.name() << " on " << topo.name();
      if (static_cast<int>(trace.size()) == opt.passes) continue;  // no stall
      ++stalls_seen;
      // The stalled pass contributed one final repeated entry: equal to the
      // entry before it, or to the start-up length when pass 1 stalled.
      const int previous = trace.size() >= 2 ? trace[trace.size() - 2]
                                             : res.startup_length();
      EXPECT_EQ(trace.back(), previous) << g.name() << " on " << topo.name();
    }
  }
  EXPECT_GT(stalls_seen, 0);
}

TEST_F(CycloTest, BestPassIndexesTheMinimumOfTheTrace) {
  // best_pass is the 1-based pass at which `best` was first reached, so
  // length_trace[best_pass - 1] must equal best_length() and be the first
  // occurrence of the trace's minimum; best_pass == 0 means no pass ever
  // improved on the start-up schedule.
  for (auto policy :
       {RemapPolicy::kWithoutRelaxation, RemapPolicy::kWithRelaxation}) {
    for (const Csdfg& g :
         {paper_example6(), paper_example19(), diffeq_solver()}) {
      CycloCompactionOptions opt;
      opt.policy = policy;
      const auto res = cyclo_compact(g, mesh_, comm_, opt);
      const auto& trace = res.length_trace;
      if (res.best_pass == 0) {
        EXPECT_EQ(res.best_length(), res.startup_length()) << g.name();
        for (const int len : trace) EXPECT_GE(len, res.startup_length());
        continue;
      }
      ASSERT_LE(static_cast<std::size_t>(res.best_pass), trace.size())
          << g.name();
      EXPECT_EQ(trace[static_cast<std::size_t>(res.best_pass) - 1],
                res.best_length())
          << g.name();
      const int minimum = *std::min_element(trace.begin(), trace.end());
      EXPECT_EQ(res.best_length(), minimum) << g.name();
      for (int i = 0; i < res.best_pass - 1; ++i)
        EXPECT_GT(trace[static_cast<std::size_t>(i)], minimum) << g.name();
    }
  }
}

TEST_F(CycloTest, SinglePeCompactionCannotBeatSerialExecution) {
  const Topology solo = make_linear_array(1);
  const StoreAndForwardModel m(solo);
  const auto res = cyclo_compact(g_, solo, m);
  EXPECT_EQ(res.best_length(), static_cast<int>(g_.total_computation()));
}

TEST_F(CycloTest, PaperExample19AcrossAllFiveArchitectures) {
  // Tables 1-10 shape: start-up 12-15, compacted roughly half; the
  // completely connected machine does at least as well as the linear array.
  const Csdfg g = paper_example19();
  CycloCompactionOptions opt;
  opt.policy = RemapPolicy::kWithRelaxation;
  int cc_best = 0, lin_best = 0;
  const Topology archs[] = {make_complete(8), make_linear_array(8),
                            make_ring(8), make_mesh(4, 2), make_hypercube(3)};
  for (const Topology& topo : archs) {
    const StoreAndForwardModel m(topo);
    const auto res = cyclo_compact(g, topo, m, opt);
    EXPECT_TRUE(validate_schedule(res.retimed_graph, res.best, m).ok())
        << topo.name();
    EXPECT_LT(res.best_length(), res.startup_length()) << topo.name();
    if (topo.name() == "complete(8)") cc_best = res.best_length();
    if (topo.name() == "linear_array(8)") lin_best = res.best_length();
  }
  // The compactor is a heuristic: allow one step of slack in the topology
  // ordering (both machines land within a step of the best found).
  EXPECT_LE(cc_best, lin_best + 1);
}

TEST_F(CycloTest, PipelinedPesCompactAtLeastAsWell) {
  CycloCompactionOptions plain;
  CycloCompactionOptions piped;
  piped.startup.pipelined_pes = true;
  const auto a = cyclo_compact(g_, mesh_, comm_, plain);
  const auto b = cyclo_compact(g_, mesh_, comm_, piped);
  EXPECT_LE(b.best_length(), a.best_length());
}

// --- Trajectories ----------------------------------------------------------

void expect_same_run(const CycloCompactionResult& got,
                     const CycloCompactionResult& want,
                     const std::string& what) {
  EXPECT_TRUE(got.best == want.best) << what;
  EXPECT_TRUE(got.startup == want.startup) << what;
  EXPECT_EQ(got.retiming, want.retiming) << what;
  EXPECT_EQ(serialize_csdfg(got.retimed_graph),
            serialize_csdfg(want.retimed_graph))
      << what;
  EXPECT_EQ(got.length_trace, want.length_trace) << what;
  EXPECT_EQ(got.best_pass, want.best_pass) << what;
  EXPECT_EQ(got.stop_reason, want.stop_reason) << what;
  EXPECT_EQ(got.remap_stats.slots_scanned, want.remap_stats.slots_scanned)
      << what;
  EXPECT_EQ(got.remap_stats.an_evaluations, want.remap_stats.an_evaluations)
      << what;
}

// A run of z passes is the first z passes of a longer run: a trajectory run
// to 3|V| and read at z gives exactly what a run configured for z passes
// gives — the best table, retiming, trace, stop reason and remap totals —
// under either policy and selection, with and without a budget that ends
// the run part way.
TEST_F(CycloTest, TrajectoryReadingsArePrefixesOfLongerRuns) {
  const Topology mesh42 = make_mesh(4, 2);
  const StoreAndForwardModel comm42(mesh42);
  for (const Csdfg& g : {paper_example6(), paper_example19(),
                         lattice_filter(), diffeq_solver()}) {
    const int v = static_cast<int>(g.node_count());
    const std::vector<int> reads = {1, 2, v, 2 * v, 3 * v};
    const ScheduleTable startup = start_up_schedule(g, mesh42, comm42);
    for (const auto policy :
         {RemapPolicy::kWithRelaxation, RemapPolicy::kWithoutRelaxation}) {
      for (const auto selection : {RemapSelection::kBidirectional,
                                   RemapSelection::kAnticipationOnly}) {
        for (const int budget : {0, 1, 2}) {
          CycloCompactionOptions opt;
          opt.policy = policy;
          opt.selection = selection;
          if (budget == 1) opt.budget.patience = 2;
          if (budget == 2) opt.budget.max_passes = v + 1;
          CompactionTrajectory run(g, startup, comm42, opt, 0, 0, reads);
          EXPECT_TRUE(run.extend(3 * v, {}));
          for (const int z : reads) {
            opt.passes = z;
            const std::string what = g.name() + " z=" + std::to_string(z) +
                                     " budget " + std::to_string(budget);
            const CycloCompactionResult want =
                cyclo_compact_from(g, startup, comm42, opt);
            expect_same_run(run.result(z), want, what);
            const CompactionReading reading = run.read(z);
            EXPECT_EQ(reading.best_length, want.best_length()) << what;
            EXPECT_EQ(reading.best_pass, want.best_pass) << what;
            EXPECT_EQ(reading.stop_reason, want.stop_reason) << what;
          }
        }
      }
    }
  }
}

// Extending a trajectory step by step runs the same passes as one run, and
// the obs context of each step sees only the passes that step ran.
TEST_F(CycloTest, TrajectoryResumesWhereItStopped) {
  const Csdfg g = paper_example19();
  const int passes = 3 * static_cast<int>(g.node_count());
  const ScheduleTable startup = start_up_schedule(g, mesh_, comm_);
  MetricsRegistry once;
  const CycloCompactionResult want =
      cyclo_compact_from(g, startup, comm_, {}, {nullptr, &once});
  CompactionTrajectory run(g, startup, comm_, {}, 0, 0, {passes});
  MetricsRegistry total;
  for (int step = 7; step < passes + 7; step += 7) {
    MetricsRegistry part;
    EXPECT_TRUE(run.extend(std::min(step, passes), {nullptr, &part}));
    EXPECT_LE(part.counter("compaction.passes"), 7);
    total.merge(part);
  }
  expect_same_run(run.result(passes), want, "resumed");
  EXPECT_EQ(total.counter("compaction.passes"),
            once.counter("compaction.passes"));
  EXPECT_EQ(total.counter("remap.slots_scanned"),
            once.counter("remap.slots_scanned"));
}

// `yield` stops only the call it is given to: the trajectory stays
// resumable, and a later call runs the passes as if nothing had happened.
TEST_F(CycloTest, TrajectoryYieldStopsOnlyTheCall) {
  const Csdfg g = paper_example19();
  const int passes = 3 * static_cast<int>(g.node_count());
  const ScheduleTable startup = start_up_schedule(g, mesh_, comm_);
  CompactionTrajectory run(g, startup, comm_, {}, 0, 0, {passes});
  VectorSink sink;
  Tracer tracer(&sink);
  int boundaries = 0;
  EXPECT_FALSE(run.extend(passes, {&tracer, nullptr},
                          [&] { return ++boundaries > 3; }));
  ASSERT_FALSE(sink.lines().empty());
  EXPECT_NE(sink.lines().back().find("\"reason\":\"preempted\""),
            std::string::npos);
  EXPECT_TRUE(run.extend(passes, {}));
  expect_same_run(run.result(passes),
                  cyclo_compact_from(g, startup, comm_, {}), "yielded");
}

// The floor ends the run for every reading past the pass that reached it.
TEST_F(CycloTest, TrajectoryStopsAtItsFloor) {
  const Csdfg g = paper_example19();
  const int passes = 3 * static_cast<int>(g.node_count());
  const ScheduleTable startup = start_up_schedule(g, mesh_, comm_);
  const CycloCompactionResult full = cyclo_compact_from(g, startup, comm_, {});
  ASSERT_GT(full.best_pass, 0);
  CompactionTrajectory run(g, startup, comm_, {}, 0, full.best_length(),
                           {full.best_pass, passes});
  EXPECT_TRUE(run.extend(passes, {}));
  EXPECT_EQ(run.read(full.best_pass).stop_reason, "");
  const CycloCompactionResult stopped = run.result(passes);
  EXPECT_EQ(stopped.stop_reason, "preempted");
  EXPECT_EQ(stopped.length_trace.size(),
            static_cast<std::size_t>(full.best_pass));
  EXPECT_TRUE(stopped.best == full.best);
}

// After release() the readings it was asked to keep still materialize.
TEST_F(CycloTest, ReleasedTrajectoryKeepsTheReadingsAsked) {
  const Csdfg g = paper_example19();
  const int v = static_cast<int>(g.node_count());
  const ScheduleTable startup = start_up_schedule(g, mesh_, comm_);
  CompactionTrajectory run(g, startup, comm_, {}, 0, 0, {v, 3 * v});
  EXPECT_TRUE(run.extend(3 * v, {}));
  const CycloCompactionResult before = run.result(v);
  run.release({v});
  expect_same_run(run.result(v), before, "released");
  EXPECT_EQ(run.read(3 * v).best_pass,
            cyclo_compact_from(g, startup, comm_, {}).best_pass);
}

}  // namespace
}  // namespace ccs
