// Tests of the schedule certifier (src/analysis/certify.hpp): the
// bad_schedules mutation corpus, the run-level audits (retiming legality,
// Theorem 4.4 monotonicity, claim bookkeeping), the unfold cross-check,
// trace auditing, and the `ccsched certify` CLI surface.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "analysis/rules.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "cli/cli.hpp"
#include "core/cyclo_compaction.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "workloads/generator.hpp"

namespace ccs {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(CCS_EXAMPLES_DATA_DIR) + "/bad_schedules/" + name;
}

std::string slurp_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

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

Csdfg corpus_graph() {
  return parse_csdfg(slurp_file(corpus_path("graph.csdfg")));
}

/// Certifies a schedule text against the corpus graph on linear_array 2.
DiagnosticBag certify_text(const std::string& sched_text,
                           const std::string& label = "<schedule>") {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  DiagnosticBag bag;
  const RawSchedule raw = parse_raw_schedule(sched_text, label, bag);
  (void)certify_schedule(g, raw, topo, comm, {}, bag);
  bag.finalize();
  return bag;
}

constexpr const char* kValidSchedule =
    "schedule 5 2\n"
    "place a 1 1\n"
    "place b 1 3\n"
    "place c 1 4\n"
    "place d 1 5\n";

// ---------------------------------------------------------------------------
// The mutation corpus: every file fires exactly its own code.

const char* const kCorpus[] = {
    "s001_bogus_directive.sched", "s002_missing_task.sched",
    "s003_out_of_table.sched",    "s004_overlapping_tasks.sched",
    "s005_issue_conflict.sched",  "s006_broken_dependence.sched",
    "s007_psl_overrun.sched",     "s008_illegal_retiming.sched",
};

std::string expected_code(const std::string& file) {
  // "s004_..." -> "CCS-S004"
  return "CCS-S" + file.substr(1, 3);
}

TEST(CertifyCorpus, EveryFileFiresExactlyItsOwnCode) {
  for (const std::string file : kCorpus) {
    const DiagnosticBag bag = certify_text(slurp_file(corpus_path(file)), file);
    ASSERT_FALSE(bag.empty()) << file;
    for (const Diagnostic& d : bag.diagnostics())
      EXPECT_EQ(d.code, expected_code(file)) << file << ": " << d.message;
    EXPECT_TRUE(bag.fails(false)) << file;
  }
}

TEST(CertifyCorpus, ValidReferenceCertifiesClean) {
  const DiagnosticBag bag = certify_text(kValidSchedule);
  EXPECT_TRUE(bag.empty()) << render_text(bag);
}

TEST(CertifyCorpus, CorpusAndUnitTestsCoverEveryScheduleRule) {
  std::set<std::string> covered;
  for (const std::string file : kCorpus) covered.insert(expected_code(file));
  // Run-level and trace-level codes are pinned by the unit tests below.
  // CCS-S016 (cached-translation re-certification) is pinned end to end in
  // test_solver.cpp and test_canon.cpp via SolveCache::corrupt_entries_for_test.
  for (const char* code : {"CCS-S009", "CCS-S010", "CCS-S011", "CCS-S012",
                           "CCS-S013", "CCS-S014", "CCS-S015", "CCS-S016"})
    covered.insert(code);
  for (const LintRule& r : all_rules()) {
    if (r.code.rfind("CCS-S", 0) != 0) continue;
    EXPECT_TRUE(covered.count(std::string(r.code)))
        << r.code << " has neither a corpus file nor a unit test";
  }
}

// ---------------------------------------------------------------------------
// CCS-S015: the sound-bound cross-check (analysis/bounds.hpp).  A truly
// clean schedule can never trip it — the local composite is sound for the
// graph's exact delay placement — so the diagnostic is pinned through the
// exposed entry point with a claimed length no real schedule can have.

TEST(CertifyBoundCrossCheck, ImpossiblyShortLengthIsS015) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  DiagnosticBag bag;
  // The corpus graph's local composite on linear_array 2 is 4 (CCS-B004:
  // critical cycle a->b->c->a), so a claimed clean length of 3 is a proof
  // that the bound engine or the certifier is broken.
  EXPECT_FALSE(cross_check_schedule_bound(g, /*length=*/3, {1, 1},
                                          /*pipelined=*/false, comm,
                                          SourceSpan{"<probe>", 0}, bag));
  bag.finalize();
  ASSERT_EQ(bag.size(), 1u);
  EXPECT_EQ(bag.diagnostics()[0].code, "CCS-S015");
  // The finding names the dominant pass and carries its witness so the
  // reader can re-derive the violated bound by hand.
  EXPECT_NE(bag.diagnostics()[0].message.find("CCS-B004"),
            std::string::npos)
      << bag.diagnostics()[0].message;
  EXPECT_TRUE(bag.fails(false));
}

TEST(CertifyBoundCrossCheck, FeasibleLengthIsClean) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  DiagnosticBag bag;
  // Length 5 is achievable (kValidSchedule), so the cross-check is quiet;
  // length 4 sits exactly on the bound and must also pass (the bound is a
  // floor, not a strict one).
  EXPECT_TRUE(cross_check_schedule_bound(g, 5, {1, 1}, false, comm,
                                         SourceSpan{"<probe>", 0}, bag));
  EXPECT_TRUE(cross_check_schedule_bound(g, 4, {1, 1}, false, comm,
                                         SourceSpan{"<probe>", 0}, bag));
  bag.finalize();
  EXPECT_TRUE(bag.empty()) << render_text(bag);
}

// ---------------------------------------------------------------------------
// File-path details: spans, resolution problems, machine mismatch.

TEST(CertifySchedule, AnchorsFindingsToTheOffendingLine) {
  const DiagnosticBag bag =
      certify_text(slurp_file(corpus_path("s004_overlapping_tasks.sched")),
                   "overlap.sched");
  ASSERT_EQ(bag.size(), 1u);
  EXPECT_EQ(bag.diagnostics()[0].span.file, "overlap.sched");
  EXPECT_EQ(bag.diagnostics()[0].span.line, 6u);  // the `place d 1 2` line
}

TEST(CertifySchedule, ResolutionProblemsAreS001) {
  const DiagnosticBag bag = certify_text(
      "schedule 5 2\n"
      "place a 1 1\n"
      "place ghost 1 3\n"   // unknown task
      "place a 2 1\n"       // placed twice
      "place b 9 3\n"       // pe out of range
      "place c 1 4\n"
      "place d 1 5\n");
  std::size_t s001 = 0;
  for (const Diagnostic& d : bag.diagnostics()) s001 += d.code == "CCS-S001";
  EXPECT_EQ(s001, 3u) << render_text(bag);
  // b was skipped by the bad pe, so completeness also fires.
  bool missing_b = false;
  for (const Diagnostic& d : bag.diagnostics())
    missing_b |= d.code == "CCS-S002" &&
                 d.message.find("'b'") != std::string::npos;
  EXPECT_TRUE(missing_b) << render_text(bag);
}

TEST(CertifySchedule, ProcessorCountMustMatchTheArchitecture) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(3);
  const StoreAndForwardModel comm(topo);
  DiagnosticBag bag;
  const RawSchedule raw =
      parse_raw_schedule(kValidSchedule, "<schedule>", bag);
  EXPECT_FALSE(certify_schedule(g, raw, topo, comm, {}, bag));
  bag.finalize();
  ASSERT_EQ(bag.size(), 1u) << render_text(bag);
  EXPECT_EQ(bag.diagnostics()[0].code, "CCS-S001");
  EXPECT_NE(bag.diagnostics()[0].message.find("declares 2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Run-level audits.

CycloCompactionResult compact_paper(RemapPolicy policy, const Csdfg& g,
                                    const Topology& topo,
                                    const CommModel& comm) {
  CycloCompactionOptions opt;
  opt.policy = policy;
  return cyclo_compact(g, topo, comm, opt);
}

TEST(CertifyRun, CleanRunCertifies) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  for (const RemapPolicy policy :
       {RemapPolicy::kWithRelaxation, RemapPolicy::kWithoutRelaxation}) {
    const CycloCompactionResult res = compact_paper(policy, g, topo, comm);
    DiagnosticBag bag;
    EXPECT_TRUE(certify_compaction_run(g, res, comm, policy, "<run>", {}, bag))
        << render_text(bag);
    EXPECT_TRUE(bag.empty()) << render_text(bag);
  }
}

TEST(CertifyRun, TamperedLengthTraceIsNonMonotone) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionResult res =
      compact_paper(RemapPolicy::kWithoutRelaxation, g, topo, comm);
  ASSERT_FALSE(res.length_trace.empty());
  res.length_trace.front() = res.startup_length() + 2;
  DiagnosticBag bag;
  EXPECT_FALSE(certify_compaction_run(
      g, res, comm, RemapPolicy::kWithoutRelaxation, "<run>", {}, bag));
  bag.finalize();
  bool s009 = false;
  for (const Diagnostic& d : bag.diagnostics()) s009 |= d.code == "CCS-S009";
  EXPECT_TRUE(s009) << render_text(bag);
  // The same tampering is tolerated under the relaxation policy (though the
  // claim bookkeeping may still complain if it shifts the minimum).
  DiagnosticBag relaxed;
  (void)certify_compaction_run(g, res, comm, RemapPolicy::kWithRelaxation,
                               "<run>", {}, relaxed);
  for (const Diagnostic& d : relaxed.diagnostics())
    EXPECT_NE(d.code, "CCS-S009") << d.message;
}

TEST(CertifyRun, TamperedBestClaimsAreS010) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionResult res =
      compact_paper(RemapPolicy::kWithRelaxation, g, topo, comm);
  res.best_pass += 7;
  DiagnosticBag bag;
  EXPECT_FALSE(certify_compaction_run(
      g, res, comm, RemapPolicy::kWithRelaxation, "<run>", {}, bag));
  bag.finalize();
  bool s010 = false;
  for (const Diagnostic& d : bag.diagnostics()) s010 |= d.code == "CCS-S010";
  EXPECT_TRUE(s010) << render_text(bag);
}

TEST(CertifyRun, TamperedRetimingIsCaught) {
  const Csdfg g = corpus_graph();
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  CycloCompactionResult res =
      compact_paper(RemapPolicy::kWithRelaxation, g, topo, comm);
  // Pull enough retiming out of task a to drive some original edge delay
  // negative (a has an in-edge with finite delay).
  res.retiming.set(0, res.retiming.of(0) + 100);
  DiagnosticBag bag;
  EXPECT_FALSE(certify_compaction_run(
      g, res, comm, RemapPolicy::kWithRelaxation, "<run>", {}, bag));
  bag.finalize();
  bool coded = false;
  for (const Diagnostic& d : bag.diagnostics())
    coded |= d.code == "CCS-S008" || d.code == "CCS-S010";
  EXPECT_TRUE(coded) << render_text(bag);
}

// ---------------------------------------------------------------------------
// Property sweep: everything the scheduler emits certifies clean, through
// both the in-memory and the file round-trip paths.

TEST(CertifySweep, SchedulerOutputAlwaysCertifies) {
  const Topology topo = make_mesh(2, 2);
  const StoreAndForwardModel comm(topo);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomDfgConfig cfg;
    cfg.num_nodes = 12;
    cfg.num_layers = 3;
    cfg.num_back_edges = 3;
    cfg.max_time = 3;
    cfg.max_volume = 3;
    cfg.max_delay = 3;
    const Csdfg g = random_csdfg(cfg, seed);
    for (const RemapPolicy policy :
         {RemapPolicy::kWithRelaxation, RemapPolicy::kWithoutRelaxation}) {
      const CycloCompactionResult res = compact_paper(policy, g, topo, comm);
      DiagnosticBag bag;
      EXPECT_TRUE(
          certify_compaction_run(g, res, comm, policy, "<sweep>", {}, bag))
          << "seed " << seed << '\n'
          << render_text(bag);

      // File round-trip: serialize with retime provenance, re-parse raw,
      // certify against the retimed graph.
      const std::string text =
          serialize_schedule(res.retimed_graph, res.best, &res.retiming);
      DiagnosticBag file_bag;
      const RawSchedule raw =
          parse_raw_schedule(text, "<round-trip>", file_bag);
      EXPECT_TRUE(certify_schedule(res.retimed_graph, raw, topo, comm, {},
                                   file_bag))
          << "seed " << seed << '\n'
          << render_text(file_bag);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace audits (structural; the replay path is covered in test_obs.cpp).

TEST(CertifyTrace, StructuralAuditCatchesGapsAndUnknownKinds) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"pass_start\",\"pass\":1,\"length\":5}\n"
      "{\"seq\":2,\"kind\":\"warp_drive\"}\n"
      "not json at all\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  std::size_t s013 = 0;
  for (const Diagnostic& d : bag.diagnostics()) s013 += d.code == "CCS-S013";
  EXPECT_EQ(s013, 3u) << render_text(bag);  // gap + unknown kind + bad JSON
}

TEST(CertifyTrace, BestLengthBookkeepingIsVerified) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"pass_start\",\"pass\":1,\"length\":6}\n"
      "{\"seq\":1,\"kind\":\"pass_end\",\"pass\":1,\"length\":5,"
      "\"improved\":true,\"best_length\":4}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  ASSERT_EQ(bag.size(), 1u) << render_text(bag);
  EXPECT_EQ(bag.diagnostics()[0].code, "CCS-S010");
}

// A portfolio attempt that resumes a shared trajectory starts its stream
// past pass 1.  Its best so far is set by the first pass's own claim, which
// must still fit that pass; later claims are held to the running minimum.
TEST(CertifyTrace, ResumedStreamTakesItsBestFromTheFirstClaim) {
  const std::string head =
      "{\"seq\":0,\"kind\":\"pass_start\",\"pass\":8,\"length\":7}\n";
  const std::string clean =
      head +
      "{\"seq\":1,\"kind\":\"pass_end\",\"pass\":8,\"length\":7,"
      "\"improved\":false,\"best_length\":5}\n"
      "{\"seq\":2,\"kind\":\"pass_start\",\"pass\":9,\"length\":7}\n"
      "{\"seq\":3,\"kind\":\"pass_end\",\"pass\":9,\"length\":4,"
      "\"improved\":true,\"best_length\":4}\n";
  DiagnosticBag ok;
  EXPECT_TRUE(audit_trace(clean, "<trace>", false, ok)) << render_text(ok);

  for (const std::string& bad :
       {// A kept best above the pass's own length.
        head +
            "{\"seq\":1,\"kind\":\"pass_end\",\"pass\":8,\"length\":7,"
            "\"improved\":false,\"best_length\":9}\n",
        // An improving pass that claims another best.
        head +
            "{\"seq\":1,\"kind\":\"pass_end\",\"pass\":8,\"length\":6,"
            "\"improved\":true,\"best_length\":5}\n",
        // A later claim below the running minimum.
        head +
            "{\"seq\":1,\"kind\":\"pass_end\",\"pass\":8,\"length\":7,"
            "\"improved\":false,\"best_length\":5}\n"
            "{\"seq\":2,\"kind\":\"pass_start\",\"pass\":9,"
            "\"length\":7}\n"
            "{\"seq\":3,\"kind\":\"pass_end\",\"pass\":9,\"length\":6,"
            "\"improved\":false,\"best_length\":4}\n"}) {
    DiagnosticBag bag;
    EXPECT_FALSE(audit_trace(bad, "<trace>", false, bag)) << bad;
    bag.finalize();
    ASSERT_EQ(bag.size(), 1u) << render_text(bag);
    EXPECT_EQ(bag.diagnostics()[0].code, "CCS-S010");
  }
}

TEST(CertifyTrace, StrictPolicyRejectsGrowth) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"pass_start\",\"pass\":1,\"length\":5}\n"
      "{\"seq\":1,\"kind\":\"pass_end\",\"pass\":1,\"length\":7,"
      "\"improved\":false,\"best_length\":5}\n";
  DiagnosticBag strict;
  EXPECT_FALSE(audit_trace(trace, "<trace>", true, strict));
  strict.finalize();
  bool s009 = false;
  for (const Diagnostic& d : strict.diagnostics()) s009 |= d.code == "CCS-S009";
  EXPECT_TRUE(s009) << render_text(strict);
  DiagnosticBag relaxed;
  EXPECT_TRUE(audit_trace(trace, "<trace>", false, relaxed))
      << render_text(relaxed);
}

// ---------------------------------------------------------------------------
// Span structure audits (CCS-S014).  Span events ride the same stream as
// pipeline events; the audit checks per-thread begin/end nesting and
// timestamp monotonicity without replaying the wall-clock values.

std::size_t count_code(const DiagnosticBag& bag, const std::string& code) {
  std::size_t n = 0;
  for (const Diagnostic& d : bag.diagnostics()) n += d.code == code;
  return n;
}

TEST(CertifyTrace, WellFormedSpansAuditClean) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"compact\",\"tid\":0,"
      "\"depth\":0,\"ts_ns\":10}\n"
      "{\"seq\":1,\"kind\":\"span_begin\",\"name\":\"compact.pass\","
      "\"tid\":0,\"depth\":1,\"ts_ns\":20}\n"
      "{\"seq\":2,\"kind\":\"span_end\",\"name\":\"compact.pass\",\"tid\":0,"
      "\"depth\":1,\"ts_ns\":30,\"dur_ns\":10}\n"
      "{\"seq\":3,\"kind\":\"span_end\",\"name\":\"compact\",\"tid\":0,"
      "\"depth\":0,\"ts_ns\":40,\"dur_ns\":30}\n";
  DiagnosticBag bag;
  EXPECT_TRUE(audit_trace(trace, "<trace>", false, bag)) << render_text(bag);
}

TEST(CertifyTrace, UnterminatedSpanScopeIsFlagged) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"compact\",\"tid\":0,"
      "\"depth\":0,\"ts_ns\":10}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  EXPECT_EQ(count_code(bag, "CCS-S014"), 1u) << render_text(bag);
}

TEST(CertifyTrace, OutOfOrderSpanTimestampIsFlagged) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"remap\",\"tid\":2,"
      "\"depth\":0,\"ts_ns\":100}\n"
      "{\"seq\":1,\"kind\":\"span_end\",\"name\":\"remap\",\"tid\":2,"
      "\"depth\":0,\"ts_ns\":50,\"dur_ns\":5}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  EXPECT_GE(count_code(bag, "CCS-S014"), 1u) << render_text(bag);
}

TEST(CertifyTrace, SpanEndOnUnknownThreadTagIsFlagged) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"span_end\",\"name\":\"remap\",\"tid\":7,"
      "\"depth\":0,\"ts_ns\":50,\"dur_ns\":5}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  EXPECT_EQ(count_code(bag, "CCS-S014"), 1u) << render_text(bag);
}

TEST(CertifyTrace, MisnestedSpanNameIsFlagged) {
  const std::string trace =
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"compact\",\"tid\":0,"
      "\"depth\":0,\"ts_ns\":10}\n"
      "{\"seq\":1,\"kind\":\"span_begin\",\"name\":\"remap\",\"tid\":0,"
      "\"depth\":1,\"ts_ns\":20}\n"
      "{\"seq\":2,\"kind\":\"span_end\",\"name\":\"compact\",\"tid\":0,"
      "\"depth\":1,\"ts_ns\":30,\"dur_ns\":10}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  EXPECT_GE(count_code(bag, "CCS-S014"), 1u) << render_text(bag);
}

TEST(CertifyTrace, SpanEventMissingFieldsIsFlagged) {
  // No tid / ts_ns, and a negative thread tag: both malformed.
  const std::string trace =
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"compact\"}\n"
      "{\"seq\":1,\"kind\":\"span_begin\",\"name\":\"remap\",\"tid\":-1,"
      "\"ts_ns\":10}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(trace, "<trace>", false, bag));
  bag.finalize();
  EXPECT_EQ(count_code(bag, "CCS-S014"), 2u) << render_text(bag);
}

// ---------------------------------------------------------------------------
// CLI surface.

TEST(CertifyCli, CorpusFailsInEveryFormatWithItsCode) {
  for (const std::string file : kCorpus) {
    for (const char* format : {"text", "jsonl", "sarif"}) {
      const CliResult r =
          cli({"certify", corpus_path(file), "--graph",
               corpus_path("graph.csdfg"), "--arch", "linear_array 2",
               "--format", format});
      EXPECT_EQ(r.code, 1) << file << ' ' << format << '\n' << r.err;
      EXPECT_NE(r.out.find(expected_code(file)), std::string::npos)
          << file << ' ' << format << '\n'
          << r.out;
    }
  }
}

TEST(CertifyCli, CleanScheduleReportsNoFindings) {
  const CliResult r = cli({"certify", "-", "--graph",
                           corpus_path("graph.csdfg"), "--arch",
                           "linear_array 2"},
                          kValidSchedule);
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("certified: no findings"), std::string::npos);
}

TEST(CertifyCli, SarifNamesTheCertifyDriver) {
  const CliResult r = cli({"certify", "-", "--graph",
                           corpus_path("graph.csdfg"), "--arch",
                           "linear_array 2", "--format", "sarif"},
                          kValidSchedule);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"name\":\"ccsched-certify\""), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"version\":\"2.1.0\""), std::string::npos);
}

TEST(CertifyCli, UsageErrorsAreCode2) {
  EXPECT_EQ(cli({"certify"}).code, 2);                          // no --graph
  EXPECT_EQ(cli({"certify", "x", "--graph", "y"}).code, 2);     // no --arch
  EXPECT_EQ(cli({"certify", "x", "--graph", corpus_path("graph.csdfg"),
                 "--arch", "linear_array 2", "--format", "yaml"})
                .code,
            2);
}

TEST(CertifyCli, ScheduleCertifyFlagCertifiesItsOwnOutput) {
  const std::string graph =
      std::string(CCS_EXAMPLES_DATA_DIR) + "/paper_fig1b.csdfg";
  for (const char* policy : {"relax", "strict", "startup", "modulo"}) {
    const CliResult r = cli({"schedule", graph, "--arch", "mesh 2 2",
                             "--policy", policy, "--quiet", "--certify"});
    EXPECT_EQ(r.code, 0) << policy << '\n' << r.err;
    EXPECT_NE(r.out.find("[certified]"), std::string::npos) << r.out;
  }
}

TEST(CertifyCli, SimulateCertifyFlagAcceptsAValidTable) {
  const std::string gfile = corpus_path("graph.csdfg");
  const CliResult sched = cli({"certify", "-", "--graph", gfile, "--arch",
                               "linear_array 2"},
                              kValidSchedule);
  ASSERT_EQ(sched.code, 0);
  // A valid table passes --certify and the simulation runs.
  std::ostringstream sfile_content;
  const std::string dir = ::testing::TempDir();
  const std::string sfile = dir + "/certify_sim.sched";
  {
    std::ofstream f(sfile);
    f << kValidSchedule;
  }
  const CliResult sim = cli({"simulate", gfile, sfile, "--arch",
                             "linear_array 2", "--iterations", "8",
                             "--certify"});
  EXPECT_EQ(sim.code, 0) << sim.err;
}

}  // namespace
}  // namespace ccs
