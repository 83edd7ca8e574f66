// Tests of the resilience subsystem (src/robust): the fault-spec parser and
// its CCS-F diagnostic corpus, fault binding, injection into the static
// executor, machine reduction, and the schedule-repair degradation ladder.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/validator.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault_plan.hpp"
#include "robust/repair.hpp"
#include "sim/executor.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

// ------------------------------------------------------------- spec parsing

FaultSpec parse_ok(const std::string& text) {
  DiagnosticBag bag;
  FaultSpec spec = parse_fault_spec(text, "<test>", bag);
  bag.finalize();
  EXPECT_EQ(bag.count(Severity::kError), 0u) << text;
  return spec;
}

TEST(FaultSpec, ParsesEveryDirectiveKind) {
  const FaultSpec spec = parse_ok(
      "# a comment\n"
      "fail p2 @iter 3\n"
      "fail p0\n"
      "link p0 p1 @iter 5\n"
      "jitter C +2\n"
      "jitter D -1\n");
  ASSERT_EQ(spec.pe_faults.size(), 2u);
  EXPECT_EQ(spec.pe_faults[0].pe, "p2");
  EXPECT_EQ(spec.pe_faults[0].iteration, 3);
  EXPECT_EQ(spec.pe_faults[1].iteration, 0);  // clause omitted
  ASSERT_EQ(spec.link_faults.size(), 1u);
  EXPECT_EQ(spec.link_faults[0].a, "p0");
  EXPECT_EQ(spec.link_faults[0].b, "p1");
  EXPECT_EQ(spec.link_faults[0].iteration, 5);
  ASSERT_EQ(spec.jitters.size(), 2u);
  EXPECT_EQ(spec.jitters[0].delta, 2);
  EXPECT_EQ(spec.jitters[1].delta, -1);
}

TEST(FaultSpec, TolerantOfCrlfAndBom) {
  const FaultSpec spec = parse_ok("\xEF\xBB\xBF" "fail p1\r\nlink p0 p1\r\n");
  EXPECT_EQ(spec.pe_faults.size(), 1u);
  EXPECT_EQ(spec.link_faults.size(), 1u);
}

// The bad-spec corpus pinning CCS-F001 (referenced by
// LintCorpus.CorpusCoversEveryRule in test_lint.cpp): every entry must
// produce at least one CCS-F001 diagnostic and nothing must throw.
TEST(FaultSpec, SyntaxCorpusPinsCcsF001) {
  const std::vector<std::string> corpus = {
      "fail\n",                          // missing PE
      "fail p1 at 3\n",                  // junk instead of @iter
      "fail p1 @iter\n",                 // missing iteration
      "fail p1 @iter -2\n",              // negative iteration
      "fail p1 @iter 99999999999999\n",  // beyond the 1e12 cap
      "fail p1 @iter 3 trailing\n",      // trailing junk
      "link p0\n",                       // one endpoint
      "link p0 p1 @iter x\n",            // non-numeric iteration
      "jitter C\n",                      // missing delta
      "jitter C 2\n",                    // unsigned delta
      "jitter C +9999999999\n",          // delta overflow
      "jitter C +3abc\n",                // trailing garbage in the delta
      "jitter C +-3\n",                  // a second sign
      "explode p0\n",                    // unknown directive
  };
  for (const std::string& text : corpus) {
    DiagnosticBag bag;
    const FaultSpec spec = parse_fault_spec(text, "<bad>", bag);
    bag.finalize();
    EXPECT_GE(bag.count(Severity::kError), 1u) << text;
    for (const Diagnostic& d : bag.diagnostics())
      EXPECT_EQ(d.code, "CCS-F001") << text;
    EXPECT_TRUE(spec.empty()) << text;
  }
  DiagnosticBag bag;
  (void)parse_fault_spec("jitter C +3abc\n", "<bad>", bag);
  bag.finalize();
  ASSERT_EQ(bag.diagnostics().size(), 1u);
  EXPECT_NE(bag.diagnostics()[0].message.find("bad delta '+3abc'"),
            std::string::npos)
      << bag.diagnostics()[0].message;
}

// The binding corpus pinning CCS-F002: structurally valid directives whose
// names do not resolve against the concrete graph + machine.
TEST(FaultSpec, BindingCorpusPinsCcsF002) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const std::vector<std::string> corpus = {
      "fail p9\n",         // PE index out of range
      "fail q1\n",         // not a PE name at all
      "link p0 p3\n",      // both PEs exist but (0,3) is not a mesh link
      "link p0 p7\n",      // endpoint out of range
      "jitter NOPE +1\n",  // unknown task
  };
  for (const std::string& text : corpus) {
    DiagnosticBag bag;
    const FaultSpec spec = parse_fault_spec(text, "<bad>", bag);
    const FaultPlan plan = bind_fault_spec(spec, g, mesh, bag);
    bag.finalize();
    EXPECT_GE(bag.count(Severity::kError), 1u) << text;
    for (const Diagnostic& d : bag.diagnostics())
      EXPECT_EQ(d.code, "CCS-F002") << text;
    EXPECT_TRUE(plan.empty()) << text;
  }
}

TEST(FaultPlan, AccessorsAndDeduplication) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  DiagnosticBag bag;
  const FaultSpec spec = parse_fault_spec(
      "fail p1 @iter 3\nfail p1 @iter 7\nlink p0 p1 @iter 2\n"
      "link p1 p0 @iter 9\njitter C +2\njitter C +1\n",
      "<test>", bag);
  const FaultPlan plan = bind_fault_spec(spec, g, mesh, bag);
  bag.finalize();
  ASSERT_EQ(bag.count(Severity::kError), 0u);

  EXPECT_FALSE(plan.pe_dead(1, 2));
  EXPECT_TRUE(plan.pe_dead(1, 3));   // earliest matching directive wins
  EXPECT_TRUE(plan.pe_dead(1, 100));
  EXPECT_FALSE(plan.pe_dead(0, 100));
  EXPECT_FALSE(plan.link_dead(0, 1, 1));
  EXPECT_TRUE(plan.link_dead(0, 1, 2));
  EXPECT_TRUE(plan.link_dead(1, 0, 2));  // direction agnostic
  EXPECT_EQ(plan.jitter_of(g.node_by_name("C")), 3);  // deltas sum
  EXPECT_EQ(plan.jitter_of(g.node_by_name("A")), 0);

  EXPECT_EQ(plan.dead_pes(), std::vector<PeId>{1});
  const std::vector<std::pair<PeId, PeId>> links = {{0, 1}};
  EXPECT_EQ(plan.dead_links(), links);
}

TEST(FaultPlan, DescribeRoundTripsThroughTheParser) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  DiagnosticBag bag;
  const FaultSpec spec = parse_fault_spec(
      "fail p2 @iter 3\nlink p0 p1 @iter 5\njitter C +2\n", "<t>", bag);
  const FaultPlan plan = bind_fault_spec(spec, g, mesh, bag);
  const std::string text = describe_fault_plan(plan, g);
  DiagnosticBag bag2;
  const FaultSpec again = parse_fault_spec(text, "<rt>", bag2);
  const FaultPlan plan2 = bind_fault_spec(again, g, mesh, bag2);
  bag2.finalize();
  EXPECT_EQ(bag2.count(Severity::kError), 0u);
  EXPECT_EQ(describe_fault_plan(plan2, g), text);
}

// ---------------------------------------------------------------- injection

class InjectionTest : public ::testing::Test {
protected:
  Csdfg g_ = paper_example6();
  Topology mesh_ = make_mesh(2, 2);
  StoreAndForwardModel comm_{mesh_};
  ScheduleTable startup_ = start_up_schedule(g_, mesh_, comm_);
  NodeId c_ = g_.node_by_name("C");

  ExecutionStats run(const FaultPlan& plan, int iterations = 8) {
    ExecutorOptions opt;
    opt.iterations = iterations;
    opt.warmup = 0;
    opt.faults = &plan;
    return execute_static(g_, startup_, mesh_, opt);
  }
};

TEST_F(InjectionTest, EmptyPlanChangesNothing) {
  const FaultPlan plan;
  const ExecutionStats with = run(plan);
  ExecutorOptions opt;
  opt.iterations = 8;
  opt.warmup = 0;
  const ExecutionStats without = execute_static(g_, startup_, mesh_, opt);
  EXPECT_EQ(with.iteration_finish, without.iteration_finish);
  EXPECT_EQ(with.failed_instances, 0);
  EXPECT_EQ(with.faults_injected, 0);
  EXPECT_EQ(with.first_failure_iteration, -1);
}

TEST_F(InjectionTest, FailStopKillsInstancesFromItsIteration) {
  FaultPlan plan;
  plan.pe_faults.push_back({startup_.pe(c_), 3});
  const ExecutionStats s = run(plan);
  // C has 5 lost iterations (3..7); its consumers starve in cascade.
  EXPECT_EQ(s.failed_instances, 5);
  EXPECT_GT(s.starved_instances, 0);
  EXPECT_EQ(s.first_failure_iteration, 3);
  EXPECT_GT(s.faults_injected, 0);
}

TEST_F(InjectionTest, FailStopAtIterationZeroStarvesTheWholeRun) {
  FaultPlan plan;
  plan.pe_faults.push_back({startup_.pe(c_), 0});
  const ExecutionStats s = run(plan);
  EXPECT_EQ(s.failed_instances, 8);
  EXPECT_EQ(s.first_failure_iteration, 0);
}

TEST_F(InjectionTest, DeadLinksLoseMessagesAndStarveConsumers) {
  // Cut every link incident to C's processor: no operand can reach it.
  FaultPlan plan;
  const PeId pc = startup_.pe(c_);
  for (PeId nb : mesh_.neighbors(pc)) plan.link_faults.push_back({pc, nb, 0});
  const ExecutionStats s = run(plan);
  EXPECT_GT(s.lost_messages, 0);
  EXPECT_GT(s.starved_instances, 0);
  EXPECT_EQ(s.first_failure_iteration, 0);
}

TEST_F(InjectionTest, JitterDelaysArrivalsInATightSchedule) {
  FaultPlan plan;
  plan.jitters.push_back({c_, 2});
  const ExecutionStats s = run(plan);
  // The startup schedule is tight around C, so a +2 jitter must surface as
  // late arrivals downstream; nothing fails outright.
  EXPECT_GT(s.late_arrivals, 0);
  EXPECT_EQ(s.failed_instances, 0);
  EXPECT_EQ(s.faults_injected, 1);
}

TEST_F(InjectionTest, FaultEventsReachTheTracer) {
  FaultPlan plan;
  plan.pe_faults.push_back({startup_.pe(c_), 1});
  plan.jitters.push_back({c_, 1});
  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  ExecutorOptions opt;
  opt.iterations = 4;
  opt.warmup = 0;
  opt.faults = &plan;
  (void)execute_static(g_, startup_, mesh_, opt,
                       ObsContext{&tracer, &metrics});
  int fault_lines = 0;
  for (const std::string& line : sink.lines())
    if (line.find("\"kind\":\"fault\"") != std::string::npos) ++fault_lines;
  EXPECT_EQ(fault_lines, 2);  // one jitter activation + one fail-stop
}

// ---------------------------------------------------------------- reduction

TEST(ReduceMachine, RenumbersSurvivorsContiguously) {
  const Topology mesh = make_mesh(2, 2);
  FaultPlan plan;
  plan.pe_faults.push_back({1, 0});
  const ReducedMachine rm = reduce_machine(mesh, plan);
  EXPECT_TRUE(rm.connected);
  ASSERT_TRUE(rm.topo.has_value());
  EXPECT_EQ(rm.topo->size(), 3u);
  EXPECT_EQ(rm.to_original, (std::vector<PeId>{0, 2, 3}));
  EXPECT_EQ(rm.from_original,
            (std::vector<std::size_t>{0, kNoPe, 1, 2}));
}

TEST(ReduceMachine, CutLinksSurviveAsFewerEdges) {
  const Topology mesh = make_mesh(2, 2);
  FaultPlan plan;
  plan.link_faults.push_back({0, 1, 4});
  const ReducedMachine rm = reduce_machine(mesh, plan);
  ASSERT_TRUE(rm.connected);
  EXPECT_EQ(rm.topo->size(), 4u);
  // p0's only remaining neighbor is p2 (the 0-1 mesh link is gone).
  EXPECT_EQ(rm.topo->neighbors(0), (std::vector<PeId>{2}));
}

TEST(ReduceMachine, DisconnectedSurvivorsAreFlagged) {
  const Topology line = make_linear_array(3);
  FaultPlan plan;
  plan.pe_faults.push_back({1, 0});
  const ReducedMachine rm = reduce_machine(line, plan);
  EXPECT_FALSE(rm.connected);
  EXPECT_FALSE(rm.topo.has_value());
  EXPECT_EQ(rm.survivors(), 2u);
}

TEST(ReduceMachine, AllDeadMeansNoSurvivors) {
  const Topology line = make_linear_array(2);
  FaultPlan plan;
  plan.pe_faults.push_back({0, 0});
  plan.pe_faults.push_back({1, 3});
  const ReducedMachine rm = reduce_machine(line, plan);
  EXPECT_EQ(rm.survivors(), 0u);
  EXPECT_FALSE(rm.connected);
}

// ------------------------------------------------------------------- repair

FaultPlan fail_pe(PeId pe, long long iter = 0) {
  FaultPlan plan;
  plan.pe_faults.push_back({pe, iter});
  return plan;
}

TEST(Repair, SinglePeFailStopRepairsEveryLibraryWorkload) {
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  const std::vector<Csdfg> workloads = {
      paper_example6(), paper_example19(),     elliptic_filter(),
      lattice_filter(), iir_biquad_cascade(3), fir_filter(8),
      diffeq_solver(),  correlator(6),
  };
  for (const Csdfg& g : workloads) {
    const CycloCompactionResult base = cyclo_compact(g, mesh, comm);
    const RepairOutcome outcome =
        repair_schedule(g, {base.retimed_graph, base.best, base.retiming},
                        mesh, fail_pe(0));
    EXPECT_TRUE(outcome.success) << g.name() << ": " << outcome.detail;
    EXPECT_NE(outcome.rung, RepairRung::kInfeasible) << g.name();
    ASSERT_TRUE(outcome.schedule.has_value()) << g.name();
    ASSERT_TRUE(outcome.machine.has_value()) << g.name();
    EXPECT_EQ(outcome.machine->size(), 3u) << g.name();
    // No repaired placement may reference the dead processor.
    for (const PeId orig : outcome.to_original) EXPECT_NE(orig, 0u);
    // The accepted table certifies from first principles on the reduced
    // machine — the repair's core guarantee.
    const StoreAndForwardModel reduced_comm(*outcome.machine);
    DiagnosticBag bag;
    EXPECT_TRUE(certify_table(outcome.graph, *outcome.schedule, reduced_comm,
                              g.name() + "/repaired", bag))
        << g.name();
    bag.finalize();
    EXPECT_EQ(bag.count(Severity::kError), 0u) << g.name();
  }
}

TEST(Repair, SinglePeFailStopRepairsEveryExampleDataWorkload) {
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  std::size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CCS_EXAMPLES_DATA_DIR)) {
    if (entry.path().extension() != ".csdfg") continue;
    ++seen;
    std::ifstream f(entry.path());
    std::stringstream text;
    text << f.rdbuf();
    const Csdfg g = parse_csdfg(text.str());
    const CycloCompactionResult base = cyclo_compact(g, mesh, comm);
    const RepairOutcome outcome =
        repair_schedule(g, {base.retimed_graph, base.best, base.retiming},
                        mesh, fail_pe(0));
    EXPECT_TRUE(outcome.success)
        << entry.path().filename() << ": " << outcome.detail;
  }
  EXPECT_GE(seen, 2u);  // paper_fig1b + macroblock at minimum
}

TEST(Repair, DeadLinkOnlyPlanKeepsEverySurvivorPlacement) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  const CycloCompactionResult base = cyclo_compact(g, mesh, comm);
  FaultPlan plan;
  plan.link_faults.push_back({0, 1, 0});
  const RepairOutcome outcome = repair_schedule(
      g, {base.retimed_graph, base.best, base.retiming}, mesh, plan);
  ASSERT_TRUE(outcome.success) << outcome.detail;
  EXPECT_TRUE(outcome.orphans.empty());
  EXPECT_EQ(outcome.machine->size(), 4u);
  // Some rung accepted a table for the thinner machine; whichever won, the
  // schedule must be valid there.
  const StoreAndForwardModel reduced_comm(*outcome.machine);
  EXPECT_TRUE(
      validate_schedule(outcome.graph, *outcome.schedule, reduced_comm).ok());
}

TEST(Repair, DisconnectedSurvivorsFallThroughToSerial) {
  const Csdfg g = paper_example6();
  const Topology line = make_linear_array(3);
  const StoreAndForwardModel comm(line);
  const CycloCompactionResult base = cyclo_compact(g, line, comm);
  const RepairOutcome outcome = repair_schedule(
      g, {base.retimed_graph, base.best, base.retiming}, line, fail_pe(1));
  ASSERT_TRUE(outcome.success) << outcome.detail;
  EXPECT_EQ(outcome.rung, RepairRung::kSerial);
  EXPECT_EQ(outcome.machine->size(), 1u);
  EXPECT_EQ(outcome.to_original, std::vector<PeId>{0});  // lowest survivor
}

TEST(Repair, AllProcessorsDeadIsInfeasible) {
  const Csdfg g = paper_example6();
  const Topology pair = make_linear_array(2);
  const StoreAndForwardModel comm(pair);
  const CycloCompactionResult base = cyclo_compact(g, pair, comm);
  FaultPlan plan;
  plan.pe_faults.push_back({0, 0});
  plan.pe_faults.push_back({1, 0});
  const RepairOutcome outcome = repair_schedule(
      g, {base.retimed_graph, base.best, base.retiming}, pair, plan);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.rung, RepairRung::kInfeasible);
  EXPECT_FALSE(outcome.schedule.has_value());
  EXPECT_FALSE(outcome.detail.empty());
}

TEST(Repair, DeterministicAcrossRuns) {
  const Csdfg g = paper_example19();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  const CycloCompactionResult base = cyclo_compact(g, mesh, comm);
  const RepairBaseline baseline{base.retimed_graph, base.best, base.retiming};
  const RepairOutcome a = repair_schedule(g, baseline, mesh, fail_pe(2));
  const RepairOutcome b = repair_schedule(g, baseline, mesh, fail_pe(2));
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.rung, b.rung);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(serialize_schedule(a.graph, *a.schedule, &a.retiming),
            serialize_schedule(b.graph, *b.schedule, &b.retiming));
}

TEST(Repair, EmitsOneAttemptEventPerRungTried) {
  const Csdfg g = paper_example6();
  const Topology mesh = make_mesh(2, 2);
  const StoreAndForwardModel comm(mesh);
  const CycloCompactionResult base = cyclo_compact(g, mesh, comm);
  VectorSink sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  const RepairOutcome outcome = repair_schedule(
      g, {base.retimed_graph, base.best, base.retiming}, mesh, fail_pe(0), {},
      ObsContext{&tracer, &metrics});
  ASSERT_TRUE(outcome.success);
  int attempt_lines = 0;
  for (const std::string& line : sink.lines())
    if (line.find("\"kind\":\"repair_attempt\"") != std::string::npos)
      ++attempt_lines;
  EXPECT_EQ(static_cast<std::size_t>(attempt_lines),
            outcome.attempts.size());
  EXPECT_GE(attempt_lines, 1);
}

}  // namespace
}  // namespace ccs
