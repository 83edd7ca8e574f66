// Unit tests for the schedule interchange format.
#include <gtest/gtest.h>

#include <string>

#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/validator.hpp"
#include "io/schedule_format.hpp"
#include "test_graphs.hpp"
#include "util/error.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

class ScheduleFormatTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
};

TEST_F(ScheduleFormatTest, RoundTripsTheStartupSchedule) {
  const ScheduleTable t = start_up_schedule(g_, mesh_, comm_);
  const ScheduleTable back = parse_schedule(g_, serialize_schedule(g_, t));
  EXPECT_EQ(back.length(), t.length());
  EXPECT_EQ(back.num_pes(), t.num_pes());
  for (NodeId v = 0; v < g_.node_count(); ++v) {
    EXPECT_EQ(back.cb(v), t.cb(v));
    EXPECT_EQ(back.pe(v), t.pe(v));
  }
  EXPECT_TRUE(validate_schedule(g_, back, comm_).ok());
}

TEST_F(ScheduleFormatTest, RoundTripsCompactedSchedulesWithPadding) {
  // A PSL-padded table declares a length beyond its occupied span; the
  // format must preserve it.
  Csdfg g;
  const NodeId u = g.add_node("u", 1);
  const NodeId v = g.add_node("v", 1);
  g.add_edge(u, v, 0, 1);
  g.add_edge(v, u, 1, 6);
  ScheduleTable t(g, 4);
  t.place(u, 0, 1);
  t.place(v, 3, 4);
  t.set_length(16);
  const ScheduleTable back = parse_schedule(g, serialize_schedule(g, t));
  EXPECT_EQ(back.length(), 16);
}

TEST_F(ScheduleFormatTest, PreservesThePipelinedFlag) {
  ScheduleTable t(g_, 2, /*pipelined_pes=*/true);
  t.place(g_.node_by_name("B"), 0, 1);
  t.place(g_.node_by_name("E"), 0, 2);
  const std::string text = serialize_schedule(g_, t);
  EXPECT_NE(text.find("pipelined"), std::string::npos);
  const ScheduleTable back = parse_schedule(g_, text);
  EXPECT_TRUE(back.pipelined_pes());
  EXPECT_EQ(back.cb(g_.node_by_name("E")), 2);
}

TEST_F(ScheduleFormatTest, PartialTablesRoundTrip) {
  ScheduleTable t(g_, 4);
  t.place(g_.node_by_name("A"), 2, 3);
  const ScheduleTable back = parse_schedule(g_, serialize_schedule(g_, t));
  EXPECT_EQ(back.placed_count(), 1u);
  EXPECT_EQ(back.pe(g_.node_by_name("A")), 2u);
}

TEST_F(ScheduleFormatTest, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_schedule(g_, "place A 1 1\n"), ParseError);
  EXPECT_THROW((void)parse_schedule(g_, "schedule 5 0\n"), ParseError);
  EXPECT_THROW((void)parse_schedule(g_, "schedule 5 2\nplace Z 1 1\n"),
               ParseError);
  EXPECT_THROW((void)parse_schedule(g_, "schedule 5 2\nplace A 3 1\n"),
               ParseError);
  EXPECT_THROW((void)parse_schedule(g_, "schedule 5 2\nplace A 1 0\n"),
               ParseError);
  EXPECT_THROW(
      (void)parse_schedule(g_, "schedule 5 2\nplace A 1 1\nplace A 2 2\n"),
      ParseError);
  EXPECT_THROW(
      (void)parse_schedule(g_, "schedule 5 2\nplace A 1 1\nplace C 1 1\n"),
      ParseError);
  // Declared length shorter than the span of B (2 cycles from cb 5).
  EXPECT_THROW((void)parse_schedule(g_, "schedule 5 2\nplace B 1 5\n"),
               ParseError);
  EXPECT_THROW((void)parse_schedule(g_, "frobnicate\n"), ParseError);
}

// The grammar: `schedule` first and once, `speeds` at most once and before
// every place, whole-token numbers, no extra tokens.
TEST_F(ScheduleFormatTest, RefusesWhatTheGrammarDoesNotTake) {
  for (const char* text : {
           "schedule 4 2 junk\n",
           "schedule 4 2 pipelined junk\n",
           "schedule 4x 2\n",
           "place A 1 1\nschedule 4 2\n",
           "retime A 1\nschedule 4 2\n",
           "schedule 4 2\nspeeds 1 1\nspeeds 1 1\n",
           "schedule 4 2\nplace A 1 1\nspeeds 1 1\n",
           "schedule 4 2\nspeeds 1 1x\n",
           "schedule 4 2\nspeeds 1 1 1\n",
           "schedule 4 2\nplace A 1 1 extra\n",
           "schedule 4 2\nplace A 1 1.5\n",
           "schedule 4 2\nretime A 1 2\n",
           "schedule 4 2\nretime A -9223372036854775808\n",
           "schedule 4 2\nretime A 1\nretime A 2\n",
       }) {
    EXPECT_THROW((void)parse_schedule(g_, text), ParseError) << text;
    DiagnosticBag bag;
    (void)resolve_schedule(g_, parse_raw_schedule(text, "<t>", bag), bag);
    bag.finalize();
    EXPECT_GE(bag.count(Severity::kError), 1u) << text;
    for (const Diagnostic& d : bag.diagnostics())
      EXPECT_EQ(d.code, "CCS-S001") << text;
  }
}

// The strict reader and the certifier share one resolution step, so they
// word a resolution problem alike.
TEST_F(ScheduleFormatTest, StrictReaderReportsTheCertifiersResolution) {
  const std::pair<const char*, const char*> cases[] = {
      {"schedule 9 2\nplace Z 1 1\n", "line 2: unknown task 'Z'"},
      {"schedule 9 2\nplace A 3 1\n",
       "line 2: pe 3 out of range for 2 processor(s)"},
      {"schedule 9 2\nplace A 1 1\nplace A 2 1\n",
       "line 3: task 'A' placed twice (first on line 2)"},
      {"schedule 9 2\nretime Q 1\n", "line 2: unknown task 'Q'"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)parse_schedule(g_, text);
      ADD_FAILURE() << text;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), message);
    }
    const Topology pair = make_linear_array(2);
    const StoreAndForwardModel comm(pair);
    DiagnosticBag bag;
    (void)certify_schedule(g_, parse_raw_schedule(text, "<t>", bag), pair,
                           comm, {}, bag);
    bag.finalize();
    std::vector<std::string> s001;
    for (const Diagnostic& d : bag.diagnostics())
      if (d.code == "CCS-S001")
        s001.push_back("line " + std::to_string(d.span.line) + ": " +
                       d.message);
    EXPECT_EQ(s001, std::vector<std::string>{message}) << text;
  }
}

// Serialize, then read strictly: every library body on each of the
// paper's five machines, homogeneous and with speeds, with and without
// pipelining, compacted so that retime lines are written too.
TEST(ScheduleRoundTrip, LibraryBodiesOnThePaperMachines) {
  for (const auto& [name, g] : test_graphs::library_workloads()) {
    for (const Topology& topo : test_graphs::paper_machines()) {
      const StoreAndForwardModel comm(topo);
      for (const bool heterogeneous : {false, true}) {
        for (const bool pipelined : {false, true}) {
          CycloCompactionOptions options;
          options.passes = 4;
          options.startup.pipelined_pes = pipelined;
          if (heterogeneous)
            for (PeId p = 0; p < topo.size(); ++p)
              options.startup.pe_speeds.push_back(1 + static_cast<int>(p % 3));
          const CycloCompactionResult res =
              cyclo_compact(g, topo, comm, options);
          const ScheduleTable back = parse_schedule(
              res.retimed_graph,
              serialize_schedule(res.retimed_graph, res.best, &res.retiming));
          const std::string where = name + " on " + topo.name();
          EXPECT_EQ(back.length(), res.best.length()) << where;
          EXPECT_EQ(back.pe_speeds(), res.best.pe_speeds()) << where;
          EXPECT_EQ(back.pipelined_pes(), pipelined) << where;
          EXPECT_EQ(back.placements(), res.best.placements()) << where;
        }
      }
    }
  }
}

// Resolution indexes the task names once: a 16k-task chain on one PE reads
// and certifies clean (each `place` line used to scan every task name).
TEST(ScheduleAtScale, SixteenThousandTaskChainReadsAndCertifies) {
  constexpr int kTasks = 16'384;
  Csdfg g("chain");
  std::string text = "schedule " + std::to_string(kTasks) + " 1\n";
  for (int i = 0; i < kTasks; ++i) {
    const std::string name = "t" + std::to_string(i);
    g.add_node(name, 1);
    if (i > 0) g.add_edge(static_cast<NodeId>(i - 1), static_cast<NodeId>(i), 0);
    text += "place " + name + " 1 " + std::to_string(i + 1) + "\n";
  }
  g.add_edge(static_cast<NodeId>(kTasks - 1), 0, 1);

  const ScheduleTable table = parse_schedule(g, text);
  EXPECT_EQ(table.length(), kTasks);
  EXPECT_EQ(table.placed_count(), static_cast<std::size_t>(kTasks));

  const Topology one = make_linear_array(1);
  const StoreAndForwardModel comm(one);
  DiagnosticBag bag;
  const RawSchedule raw = parse_raw_schedule(text, "<chain>", bag);
  EXPECT_TRUE(certify_schedule(g, raw, one, comm, {}, bag));
  bag.finalize();
  EXPECT_TRUE(bag.empty()) << render_text(bag);
}

TEST_F(ScheduleFormatTest, CommentsAreIgnored) {
  const ScheduleTable t = parse_schedule(g_,
                                         "# saved by ccsched\n"
                                         "schedule 3 2\n"
                                         "place A 1 1  # the source\n");
  EXPECT_EQ(t.length(), 3);
  EXPECT_EQ(t.cb(g_.node_by_name("A")), 1);
}

}  // namespace
}  // namespace ccs
