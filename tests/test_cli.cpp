// In-process tests of the command-line driver (src/cli).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "io/text_format.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult cli(const std::vector<std::string>& args,
              const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out, err;
  const int code = run_cli(args, in, out, err);
  return {code, out.str(), err.str()};
}

/// Writes `text` under the test temp dir and returns the path.
std::string temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream f(path);
  f << text;
  return path;
}

const char* kDemo =
    "graph demo\nnode a 1\nnode b 2\nedge a b 0 2\nedge b a 2 1\n";

TEST(Cli, NoArgsIsUsageError) {
  const CliResult r = cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandIsUsageError) {
  const CliResult r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, InfoReportsStructureAndCriticalCycle) {
  const CliResult r = cli({"info", "-"}, kDemo);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("tasks:            2"), std::string::npos);
  EXPECT_NE(r.out.find("iteration bound:  3/2"), std::string::npos);
  EXPECT_NE(r.out.find("a -> b -> a"), std::string::npos);
}

TEST(Cli, BoundPrintsTheRational) {
  const CliResult r = cli({"bound", "-"}, kDemo);
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out, "3/2\n");
}

TEST(Cli, FilesAndStdinAreInterchangeable) {
  const std::string path = temp_file("demo.csdfg", kDemo);
  EXPECT_EQ(cli({"bound", path}).out, cli({"bound", "-"}, kDemo).out);
}

TEST(Cli, MissingFileIsAFailure) {
  const CliResult r = cli({"bound", "/nonexistent/file.csdfg"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, RetimeEmitsAParsableGraphWithShorterPeriod) {
  const std::string text = serialize_csdfg(paper_example6());
  const CliResult r = cli({"retime", "-"}, text);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("clock period 3"), std::string::npos);
  // The emitted body (after the comment line) parses back.
  const Csdfg back = parse_csdfg(r.out);
  EXPECT_EQ(back.node_count(), 6u);
}

TEST(Cli, DotEmitsGraphviz) {
  const CliResult r = cli({"dot", "-"}, kDemo);
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("digraph \"demo\""), std::string::npos);
}

TEST(Cli, DotEmitsTopologies) {
  const CliResult r = cli({"dot", "--arch", "ring 4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("graph \"ring(4)\""), std::string::npos);
  EXPECT_NE(r.out.find("p0 -- p1"), std::string::npos);
  EXPECT_EQ(cli({"dot"}).code, 2);
}

TEST(Cli, ScheduleEndToEnd) {
  const CliResult r =
      cli({"schedule", "-", "--arch", "mesh 2 2"}, kDemo);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("[valid]"), std::string::npos);
  EXPECT_NE(r.out.find("| cs "), std::string::npos);
}

TEST(Cli, ScheduleRequiresArch) {
  const CliResult r = cli({"schedule", "-"}, kDemo);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--arch"), std::string::npos);
}

TEST(Cli, SchedulePolicyAndPassesAreHonored) {
  const CliResult strict = cli(
      {"schedule", "-", "--arch", "complete 4", "--policy", "strict",
       "--passes", "2", "--quiet"},
      kDemo);
  EXPECT_EQ(strict.code, 0) << strict.err;
  const CliResult startup = cli(
      {"schedule", "-", "--arch", "complete 4", "--policy", "startup",
       "--quiet"},
      kDemo);
  EXPECT_EQ(startup.code, 0);
  const CliResult modulo = cli(
      {"schedule", "-", "--arch", "complete 4", "--policy", "modulo",
       "--quiet"},
      kDemo);
  EXPECT_EQ(modulo.code, 0) << modulo.err;
  EXPECT_NE(modulo.out.find("[valid]"), std::string::npos);
  const CliResult bad = cli(
      {"schedule", "-", "--arch", "complete 4", "--policy", "sideways"},
      kDemo);
  EXPECT_EQ(bad.code, 2);
}

// The modulo scheduler builds one homogeneous, non-pipelined table: the
// flags that would describe another machine are refused, not ignored.
TEST(Cli, ModuloPolicyRefusesPipelinedAndSpeeds) {
  const CliResult pipelined =
      cli({"schedule", "-", "--arch", "complete 4", "--policy", "modulo",
           "--pipelined"},
          kDemo);
  EXPECT_EQ(pipelined.code, 2);
  EXPECT_NE(pipelined.err.find("--pipelined"), std::string::npos)
      << pipelined.err;
  const CliResult speeds =
      cli({"schedule", "-", "--arch", "complete 4", "--policy", "modulo",
           "--speeds", "1,2,1,1"},
          kDemo);
  EXPECT_EQ(speeds.code, 2);
  EXPECT_NE(speeds.err.find("--speeds"), std::string::npos) << speeds.err;
}

TEST(Cli, ScheduleValidateSimulateRoundTrip) {
  // schedule --emit-* produces artifacts that validate and simulate.
  const std::string paper = serialize_csdfg(paper_example6());
  const CliResult sched = cli({"schedule", "-", "--arch", "mesh 2 2",
                               "--quiet", "--emit-schedule", "--emit-graph"},
                              paper);
  ASSERT_EQ(sched.code, 0) << sched.err;
  // Split the output: graph part starts at "graph ", schedule at
  // "schedule ".
  const auto gpos = sched.out.find("graph ");
  const auto spos = sched.out.find("schedule ");
  ASSERT_NE(gpos, std::string::npos);
  ASSERT_NE(spos, std::string::npos);
  const std::string gfile =
      temp_file("rt.csdfg", sched.out.substr(gpos, spos - gpos));
  const std::string sfile = temp_file("rt.sched", sched.out.substr(spos));

  const CliResult val =
      cli({"validate", gfile, sfile, "--arch", "mesh 2 2"});
  EXPECT_EQ(val.code, 0) << val.out << val.err;
  EXPECT_NE(val.out.find("valid"), std::string::npos);

  const CliResult sim = cli({"simulate", gfile, sfile, "--arch", "mesh 2 2",
                             "--iterations", "16", "--gantt", "12"});
  EXPECT_EQ(sim.code, 0) << sim.err;
  EXPECT_NE(sim.out.find("late arrivals:   0"), std::string::npos);
  EXPECT_NE(sim.out.find("pe1 |"), std::string::npos);

  const CliResult self = cli({"simulate", gfile, sfile, "--arch", "mesh 2 2",
                              "--self-timed", "--contention"});
  EXPECT_EQ(self.code, 0) << self.err;
  EXPECT_NE(self.out.find("self-timed"), std::string::npos);
}

TEST(Cli, ValidateFlagsABrokenSchedule) {
  const std::string gfile = temp_file("bad.csdfg", kDemo);
  // b placed before its producer's data can arrive (a ends at 1, volume 2
  // over 1 hop -> b may start at 4 earliest on another PE of a pair).
  const std::string sfile = temp_file(
      "bad.sched", "schedule 6 2\nplace a 1 1\nplace b 2 2\n");
  const CliResult r = cli({"validate", gfile, sfile, "--arch",
                           "linear_array 2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("a->b"), std::string::npos);
}

TEST(Cli, HeterogeneousSpeedsFlowThrough) {
  const CliResult r = cli({"schedule", "-", "--arch", "linear_array 2",
                           "--speeds", "1,2", "--quiet", "--emit-schedule"},
                          kDemo);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("speeds 1 2"), std::string::npos);
  const CliResult bad = cli({"schedule", "-", "--arch", "linear_array 2",
                             "--speeds", "1,2,3"},
                            kDemo);
  EXPECT_EQ(bad.code, 2);
}

TEST(Cli, UnknownOptionRejected) {
  const CliResult r =
      cli({"schedule", "-", "--arch", "mesh 2 2", "--turbo"}, kDemo);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--turbo"), std::string::npos);
}

TEST(Cli, EqualsFormOptionsAreAccepted) {
  const CliResult r = cli(
      {"schedule", "-", "--arch=complete 4", "--policy=strict",
       "--passes=2", "--quiet"},
      kDemo);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("[valid]"), std::string::npos);
  const CliResult bad =
      cli({"schedule", "-", "--arch=complete 4", "--passes=soon"}, kDemo);
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--passes"), std::string::npos);
}

TEST(Cli, TwoStdinArgumentsRejected) {
  const CliResult r = cli({"validate", "-", "-", "--arch", "mesh 2 2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("stdin"), std::string::npos);
}

// ------------------------------------------------------- exit-code contract
//
// The contract documented in cli.hpp, pinned here: 0 = success, 1 =
// operational failure (bad input, invalid/uncertified result, --werror),
// 2 = usage error (the command line itself is malformed).

TEST(CliExitCodes, ZeroMeansSuccess) {
  EXPECT_EQ(cli({"bound", "-"}, kDemo).code, 0);
}

TEST(CliExitCodes, OperationalFailuresAreOne) {
  // Unreadable input file.
  EXPECT_EQ(cli({"bound", "/nonexistent/file.csdfg"}).code, 1);
  // Unparsable graph text.
  EXPECT_EQ(cli({"bound", "-"}, "graph g\nnode a\n").code, 1);
  // A schedule the validator rejects (validate prints, then fails).
  const std::string gfile = temp_file("ec.csdfg", kDemo);
  const std::string sfile = temp_file(
      "ec.sched", "schedule 6 2\nplace a 1 1\nplace b 2 2\n");
  EXPECT_EQ(cli({"validate", gfile, sfile, "--arch", "linear_array 2"}).code,
            1);
  // --werror promotes lint warnings (here CCS-G007, isolated node) to
  // failure; without it they report but succeed.
  const char* lonely =
      "graph g\nnode a 1\nnode b 1\nnode c 1\nedge a b 1\nedge b a 1\n";
  EXPECT_EQ(cli({"lint", "-"}, lonely).code, 0);
  EXPECT_EQ(cli({"lint", "-", "--werror"}, lonely).code, 1);
}

TEST(CliExitCodes, UsageErrorsAreTwo) {
  EXPECT_EQ(cli({}).code, 2);                                  // no command
  EXPECT_EQ(cli({"frobnicate"}).code, 2);                      // unknown cmd
  EXPECT_EQ(cli({"schedule", "-"}, kDemo).code, 2);            // missing arg
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--turbo"},
                kDemo).code, 2);                               // unknown flag
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2",
                 "--budget-passes", "-1"}, kDemo).code, 2);     // bad value
  // Numbers are whole integers or usage errors, never a parsed prefix.
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--passes", "3abc"},
                kDemo).code, 2);
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--portfolio",
                 "--jobs", "1.9"}, kDemo).code, 2);
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--portfolio",
                 "--seed", "-1"}, kDemo).code, 2);
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--speeds",
                 "1.9,2.5,1,1"}, kDemo).code, 2);
  EXPECT_EQ(cli({"report", "--diff", "a.json", "b.json", "--threshold",
                 "5abc"}).code, 2);
  EXPECT_EQ(cli({"report", "--diff", "a.json", "b.json", "--threshold",
                 "nan"}).code, 2);
}

// ------------------------------------------------------------------ budgets

TEST(Cli, ScheduleBudgetReportsTheStop) {
  const CliResult r = cli({"schedule", "-", "--arch", "mesh 2 2",
                           "--budget-passes", "1", "--quiet"},
                          kDemo);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("budget: stopped by max-passes after 1 pass(es)"),
            std::string::npos)
      << r.out;
}

// ------------------------------------------------------------------- stress

std::string paper6_text() {
  static const std::string text = serialize_csdfg(paper_example6());
  return text;
}

TEST(Cli, StressRequiresAFaultSpec) {
  const CliResult r =
      cli({"stress", "-", "--arch", "mesh 2 2"}, paper6_text());
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--faults"), std::string::npos);
}

TEST(Cli, StressRejectsABadFaultSpec) {
  const std::string faults = temp_file("bad.faults", "explode p0\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults},
      paper6_text());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("CCS-F001"), std::string::npos);
}

TEST(Cli, StressUnknownTargetIsAFailure) {
  const std::string faults = temp_file("oob.faults", "fail p9\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults},
      paper6_text());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("CCS-F002"), std::string::npos);
}

TEST(Cli, StressBrokenVerdictFailsWithoutRepair) {
  // Killing every processor but p3 must hit the schedule somewhere.
  const std::string faults =
      temp_file("kill3.faults", "fail p0\nfail p1\nfail p2\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults, "--quiet"},
      paper6_text());
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.out.find("verdict:  broken"), std::string::npos);
  EXPECT_NE(r.out.find("first failure @iter"), std::string::npos);
}

TEST(Cli, StressDormantFaultIsUnaffected) {
  // The link dies long after the simulated window: verdict unaffected.
  const std::string faults =
      temp_file("dormant.faults", "link p0 p1 @iter 999999\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults,
       "--iterations", "16", "--quiet"},
      paper6_text());
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("verdict:  unaffected"), std::string::npos);
}

TEST(Cli, StressRepairProducesACertifiedSchedule) {
  const std::string faults = temp_file("fail0.faults", "fail p0\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults, "--repair",
       "--emit-schedule"},
      paper6_text());
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("repair ladder:"), std::string::npos);
  EXPECT_NE(r.out.find("[certified]"), std::string::npos);
  EXPECT_NE(r.out.find("pe map:"), std::string::npos);
  // The repaired machine has no p0: the map targets only p1..p3.
  EXPECT_EQ(r.out.find("->p0"), std::string::npos);
  // --emit-schedule appends a parsable table for the reduced machine.
  EXPECT_NE(r.out.find("schedule "), std::string::npos);
}

// ---------------------------------------------------------------- portfolio

TEST(Cli, SchedulePortfolioReportsWinnerAndRoster) {
  const CliResult r = cli({"schedule", "-", "--arch", "mesh 2 2",
                           "--portfolio", "--jobs", "2", "--certify"},
                          paper6_text());
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("portfolio: 24 attempt(s), jobs 2, winner #"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("lower bound"), std::string::npos);
  EXPECT_NE(r.out.find("#0 base:"), std::string::npos);  // per-attempt rows
  EXPECT_NE(r.out.find("[certified]"), std::string::npos);
}

TEST(Cli, SchedulePortfolioIsByteDeterministic) {
  // --quiet: the per-attempt rows print each loser's stop reason, and when
  // a loser gets preempted at jobs>1 depends on thread timing.  The quiet
  // summary (winner identity, serial length, lower bound) and the emitted
  // schedule are covered by the determinism contract.
  const std::vector<std::string> args = {
      "schedule", "-",      "--arch",     "mesh 2 2", "--portfolio",
      "--jobs",   "4",      "--seed",     "11",       "--attempts",
      "30",       "--quiet", "--emit-schedule"};
  const CliResult a = cli(args, paper6_text());
  const CliResult b = cli(args, paper6_text());
  EXPECT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SchedulePortfolioWinnerIsIndependentOfJobs) {
  // Full stdout differs across --jobs only in the literal "jobs N" echo;
  // the emitted schedule (and the winner's identity) must not.
  const auto run = [&](const std::string& jobs) {
    return cli({"schedule", "-", "--arch", "mesh 2 2", "--portfolio",
                "--jobs", jobs, "--quiet", "--emit-schedule"},
               paper6_text());
  };
  const CliResult serial = run("1");
  const CliResult wide = run("8");
  EXPECT_EQ(serial.code, 0) << serial.err;
  const std::size_t a = serial.out.find("schedule ");
  const std::size_t b = wide.out.find("schedule ");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_EQ(serial.out.substr(a), wide.out.substr(b));
}

TEST(Cli, PortfolioFlagsRequireThePortfolioFlag) {
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--jobs", "2"},
                kDemo).code, 2);
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--seed", "1"},
                kDemo).code, 2);
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--attempts", "4"},
                kDemo).code, 2);
  EXPECT_EQ(cli({"schedule", "-", "--arch", "mesh 2 2", "--portfolio",
                 "--jobs", "-3"}, kDemo).code, 2);
}

TEST(Cli, PortfolioRejectsNonCompactionPolicies) {
  for (const char* policy : {"startup", "modulo"}) {
    const CliResult r = cli({"schedule", "-", "--arch", "mesh 2 2",
                             "--portfolio", "--policy", policy},
                            kDemo);
    EXPECT_EQ(r.code, 2) << policy;
  }
}

// ------------------------------------------------- budget flags everywhere

TEST(Cli, StressRepairAcceptsTheBudgetFlags) {
  // The budget grammar is uniform: everywhere a compaction runs, the three
  // budget flags parse.  stress --repair compacts on the reduced machine.
  const std::string faults = temp_file("bfail0.faults", "fail p0\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults, "--repair",
       "--budget-passes", "40", "--budget-ms", "60000", "--patience", "20",
       "--quiet"},
      paper6_text());
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("repair ladder:"), std::string::npos);
}

TEST(Cli, CertifyReplayAcceptsTheBudgetFlags) {
  // A trace recorded under a budget only replays cleanly when the replay
  // is given the same budget — the flags must round-trip.
  const std::string trace = ::testing::TempDir() + "/budgeted.trace";
  const std::string graph = temp_file("budgeted.csdfg", paper6_text());
  const CliResult rec = cli({"schedule", graph, "--arch", "mesh 2 2",
                             "--budget-passes", "2", "--trace", trace,
                             "--quiet"});
  ASSERT_EQ(rec.code, 0) << rec.err;
  const CliResult ok = cli({"certify", "--replay", trace, "--graph", graph,
                            "--arch", "mesh 2 2", "--budget-passes", "2"});
  EXPECT_EQ(ok.code, 0) << ok.out << ok.err;
  // Without the budget the replay runs past the recorded stop and the
  // divergence is a finding, not a crash.
  const CliResult divergent = cli({"certify", "--replay", trace, "--graph",
                                   graph, "--arch", "mesh 2 2"});
  EXPECT_EQ(divergent.code, 1) << divergent.out;
}

TEST(Cli, StressRepairOnAnAllDeadMachineIsInfeasible) {
  const std::string faults = temp_file(
      "all.faults", "fail p0\nfail p1\nfail p2\nfail p3\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults, "--repair",
       "--quiet"},
      paper6_text());
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.out.find("repair:   infeasible"), std::string::npos);
}

// -------------------------------------------------------------- fingerprint

/// Returns the `<hex32>  aut=...  <file>` lines of a fingerprint run.
std::vector<std::string> fingerprint_lines(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line))
    if (line.find("  aut=") != std::string::npos) lines.push_back(line);
  return lines;
}

TEST(Cli, FingerprintOutputIsByteDeterministic) {
  const std::string a = temp_file("fp_a.csdfg", kDemo);
  const std::string b = temp_file("fp_b.csdfg", paper6_text());
  const CliResult first = cli({"fingerprint", a, b});
  const CliResult second = cli({"fingerprint", a, b});
  EXPECT_EQ(first.code, 0) << first.out;
  EXPECT_EQ(first.out, second.out);
  EXPECT_EQ(first.err, second.err);

  const std::vector<std::string> lines = fingerprint_lines(first.out);
  ASSERT_EQ(lines.size(), 2u) << first.out;
  for (const std::string& line : lines) {
    ASSERT_GE(line.size(), 32u);
    EXPECT_EQ(line.find_first_not_of("0123456789abcdef"), 32u) << line;
  }
  // Distinct workloads keep distinct fingerprints.
  EXPECT_NE(lines[0].substr(0, 32), lines[1].substr(0, 32));
}

TEST(Cli, FingerprintFlagsDuplicateInputsAsN001) {
  const std::string a = temp_file("dup_a.csdfg", kDemo);
  const std::string b = temp_file("dup_b.csdfg", kDemo);
  const CliResult lenient = cli({"fingerprint", a, b});
  EXPECT_EQ(lenient.code, 0) << lenient.out;
  EXPECT_NE(lenient.out.find("CCS-N001"), std::string::npos);
  // The duplicate is a warning: fatal only under --werror.
  const CliResult strict = cli({"fingerprint", a, b, "--werror"});
  EXPECT_EQ(strict.code, 1) << strict.out;
}

TEST(Cli, FingerprintIsomorphicVerdictsAndExitCodes) {
  const std::string a = temp_file("iso_a.csdfg", kDemo);
  // kDemo under different node names: attribute-isomorphic to it.
  const std::string renamed = temp_file(
      "iso_renamed.csdfg",
      "graph demo2\nnode x 1\nnode y 2\nedge x y 0 2\nedge y x 2 1\n");
  const std::string other = temp_file("iso_other.csdfg", paper6_text());

  const CliResult same = cli({"fingerprint", "--isomorphic", a, renamed});
  EXPECT_EQ(same.code, 0) << same.out;
  EXPECT_NE(same.out.find("isomorphic"), std::string::npos);
  EXPECT_EQ(same.out.find("not isomorphic"), std::string::npos) << same.out;

  const CliResult diff = cli({"fingerprint", "--isomorphic", a, other});
  EXPECT_EQ(diff.code, 1) << diff.out;
  EXPECT_NE(diff.out.find("not isomorphic"), std::string::npos);

  const CliResult usage = cli({"fingerprint", "--isomorphic", a});
  EXPECT_EQ(usage.code, 2) << usage.out;
}

// ----------------------------------------------------- stress --portfolio

TEST(Cli, StressPortfolioFlagsAreGated) {
  const std::string faults = temp_file("gate.faults", "fail p0\n");
  const CliResult jobs = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults, "--jobs",
       "2"},
      paper6_text());
  EXPECT_EQ(jobs.code, 2);
  EXPECT_NE(jobs.err.find("--portfolio"), std::string::npos);
  const CliResult attempts = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults,
       "--attempts", "3"},
      paper6_text());
  EXPECT_EQ(attempts.code, 2);
  const CliResult seed = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults, "--seed",
       "7"},
      paper6_text());
  EXPECT_EQ(seed.code, 2);
  EXPECT_NE(seed.err.find("--portfolio"), std::string::npos);
}

TEST(Cli, StressPortfolioBaselineRunsAndReportsTheWinner) {
  const std::string faults =
      temp_file("pdormant.faults", "link p0 p1 @iter 999999\n");
  const CliResult r = cli(
      {"stress", "-", "--arch", "mesh 2 2", "--faults", faults,
       "--portfolio", "--jobs", "2", "--attempts", "4", "--quiet"},
      paper6_text());
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("portfolio: winner"), std::string::npos);
  EXPECT_NE(r.out.find("baseline:"), std::string::npos);
}

// -------------------------------------------------------------------- serve

TEST(Cli, ServeRejectsBadOptionValues) {
  EXPECT_EQ(cli({"serve", "--jobs", "0"}).code, 2);
  EXPECT_EQ(cli({"serve", "--queue-depth", "0"}).code, 2);
  EXPECT_EQ(cli({"serve", "extra-positional"}).code, 2);
  // Ladder thresholds must be ordered.
  EXPECT_EQ(
      cli({"serve", "--full-ms", "10", "--compact-ms", "50"}).code, 2);
  EXPECT_EQ(cli({"serve", "--bogus-flag"}).code, 2);
}

TEST(Cli, ServeAnswersARequestStreamOnStdin) {
  std::string graph_json;
  for (const char c : paper6_text()) {
    if (c == '\n') {
      graph_json += "\\n";
    } else {
      graph_json += c;
    }
  }
  std::string input = "{\"op\":\"solve\",\"id\":\"one\",\"graph\":\"" +
                      graph_json + "\",\"arch\":\"mesh 2 2\"}\n";
  input += "this line is hostile\n";
  input += "{\"op\":\"shutdown\"}\n";
  const CliResult r = cli({"serve"}, input);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"id\":\"one\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.out.find("CCS-E001"), std::string::npos);
  EXPECT_NE(r.out.find("\"op\":\"shutdown\""), std::string::npos);
  // The summary goes to stderr; stdout carries responses only.
  EXPECT_NE(r.err.find("serve_summary"), std::string::npos);
  EXPECT_EQ(r.out.find("serve_summary"), std::string::npos);
}

}  // namespace
}  // namespace ccs
