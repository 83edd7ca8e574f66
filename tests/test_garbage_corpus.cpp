// Hostile-input corpus: every text parser in the repo must survive
// truncated, binary, oversized, and structurally absurd inputs by reporting
// diagnostics (or a structured ParseError, for the strict layers) — never
// by crashing, hanging, or allocating absurd amounts of memory.  The corpus
// is fully deterministic (a fixed-seed LCG, no std::random_device), so a
// failure reproduces bit-for-bit; tools/check.sh runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/canon.hpp"
#include "analysis/certify.hpp"
#include "analysis/diagnostics.hpp"
#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "cli/cli.hpp"
#include "graph_reader_referee.hpp"
#include "io/schedule_format.hpp"
#include "io/serve_codec.hpp"
#include "io/text_format.hpp"
#include "robust/fault_plan.hpp"
#include "sdf/sdf.hpp"
#include "sdf/sdf_format.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"

namespace ccs {
namespace {

/// The graph the strict schedule reader resolves hostile schedules
/// against; its task names are the ones the corpus uses.
const Csdfg& schedule_graph() {
  static const Csdfg g = parse_csdfg(
      "graph g\nnode a 1\nnode b 2\nnode C 1\nedge a b 0 1\nedge b a 1 1\n");
  return g;
}

/// The graph reader accepts nothing its referee (the istringstream reader
/// it replaced) refuses, and reads what both accept alike.
void expect_no_wider_than_referee(const std::string& text,
                                  const std::string& label,
                                  const ParsedCsdfg& mine,
                                  const DiagnosticBag& mine_bag) {
  DiagnosticBag theirs;
  ParsedCsdfg ref;
  bool refused = false;
  try {
    ref = referee::parse_csdfg_with_spans(text, label, theirs);
    refused = theirs.count(Severity::kError) > 0;
  } catch (const GraphError&) {
    refused = true;  // a volume read as a huge number, past the cap
  }
  const bool accepted = mine_bag.count(Severity::kError) == 0;
  EXPECT_FALSE(refused && accepted) << label;
  if (!accepted) return;
  EXPECT_EQ(serialize_csdfg(mine.graph), serialize_csdfg(ref.graph)) << label;
  EXPECT_EQ(mine.spans.node_lines, ref.spans.node_lines) << label;
  EXPECT_EQ(mine.spans.edge_lines, ref.spans.edge_lines) << label;
}

/// Feeds one hostile input to every lenient parser and to the strict
/// topology, SDF and schedule readers; the only acceptable outcomes are
/// diagnostics and ParseError.
void expect_survives(const std::string& text, const std::string& label) {
  {
    DiagnosticBag bag;
    const auto parsed = parse_csdfg_with_spans(text, label, bag);
    bag.finalize();
    // Whatever graph the lenient parser salvages, canonical labeling must
    // terminate on it and hand back a permutation witness that reverifies.
    const CanonResult canon = canonicalize(parsed.graph);
    EXPECT_TRUE(reverify(parsed.graph, canon)) << label;
    expect_no_wider_than_referee(text, label, parsed, bag);
  }
  try {
    (void)parse_sdf(text);
  } catch (const ParseError&) {
  }
  try {
    (void)parse_schedule(schedule_graph(), text);
  } catch (const ParseError&) {
  }
  {
    DiagnosticBag bag;
    (void)parse_raw_schedule(text, label, bag);
    bag.finalize();
  }
  {
    DiagnosticBag bag;
    (void)parse_fault_spec(text, label, bag);
    bag.finalize();
  }
  try {
    (void)parse_topology(text);
  } catch (const Error&) {
    // ParseError/ArchitectureError with a structured message: acceptable.
  }
  {
    // The trace auditor (including the span-structure checks) must report
    // CCS-S013/S014 findings on hostile JSONL, never crash.
    DiagnosticBag bag;
    (void)audit_trace(text, label, false, bag);
    bag.finalize();
  }
}

TEST(GarbageCorpus, TruncatedFiles) {
  const std::vector<std::string> corpus = {
      "",
      "graph",
      "graph g\nnode a",
      "graph g\nnode a 1\nedge a",
      "schedule",
      "schedule 4",
      "schedule 4 2\nplace a",
      "fail",
      "link p0",
      "jitter C",
  };
  for (const std::string& text : corpus) expect_survives(text, "<trunc>");
}

TEST(GarbageCorpus, HostileSpanEventStreams) {
  // Structurally absurd span JSONL must produce findings, not crashes:
  // huge depths/timestamps, duplicate ends, interleaved threads, and a
  // span_begin flood with no ends.
  const std::vector<std::string> corpus = {
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"x\",\"tid\":"
      "99999999999999999999,\"ts_ns\":1}\n",
      "{\"seq\":0,\"kind\":\"span_end\",\"name\":\"\",\"tid\":0,"
      "\"ts_ns\":-99999999999999999999}\n",
      "{\"seq\":0,\"kind\":\"span_begin\",\"name\":\"a\",\"tid\":0,"
      "\"ts_ns\":5}\n"
      "{\"seq\":1,\"kind\":\"span_end\",\"name\":\"a\",\"tid\":0,"
      "\"ts_ns\":6}\n"
      "{\"seq\":2,\"kind\":\"span_end\",\"name\":\"a\",\"tid\":0,"
      "\"ts_ns\":7}\n",
  };
  for (const std::string& text : corpus) {
    DiagnosticBag bag;
    (void)audit_trace(text, "<span-garbage>", false, bag);
    bag.finalize();
  }
  std::string flood;
  for (int i = 0; i < 1000; ++i)
    flood += "{\"seq\":" + std::to_string(i) +
             ",\"kind\":\"span_begin\",\"name\":\"s\",\"tid\":" +
             std::to_string(i % 7) + ",\"ts_ns\":" + std::to_string(i) +
             "}\n";
  DiagnosticBag bag;
  EXPECT_FALSE(audit_trace(flood, "<span-flood>", false, bag));
  bag.finalize();
  EXPECT_GE(bag.count(Severity::kError), 7u);  // one per thread tag
}

TEST(GarbageCorpus, CrlfAndBomInputsParseLikePlainLf) {
  // Not just survival: a BOM'd CRLF file must mean the same thing.
  DiagnosticBag bag;
  const ParsedCsdfg dos = parse_csdfg_with_spans(
      "\xEF\xBB\xBF" "graph g\r\nnode a 1\r\nnode b 1\r\nedge a b 1\r\n",
      "<dos>", bag);
  bag.finalize();
  EXPECT_EQ(bag.count(Severity::kError), 0u);
  EXPECT_EQ(dos.graph.node_count(), 2u);
  EXPECT_EQ(dos.graph.edge_count(), 1u);
  EXPECT_EQ(dos.graph.name(), "g");

  DiagnosticBag bag2;
  const RawSchedule raw =
      parse_raw_schedule("\xEF\xBB\xBFschedule 4 2\r\nplace a 1 1\r\n",
                         "<dos>", bag2);
  bag2.finalize();
  EXPECT_EQ(bag2.count(Severity::kError), 0u);
  EXPECT_TRUE(raw.has_directive);
  ASSERT_EQ(raw.places.size(), 1u);
  EXPECT_EQ(raw.places[0].task, "a");

  const ScheduleTable table = parse_schedule(
      dos.graph, "\xEF\xBB\xBFschedule 4 2 pipelined\r\nspeeds 1 2\r\n"
                 "place a 1 1\r\nplace b 2 3\r\n");
  EXPECT_EQ(table.length(), 4);
  EXPECT_TRUE(table.pipelined_pes());
  EXPECT_EQ(table.pe_speed(1), 2);
  EXPECT_EQ(table.cb(1), 3);
  EXPECT_EQ(table.pe(1), 1u);

  const SdfGraph sdf = parse_sdf(
      "\xEF\xBB\xBFsdf s\r\nactor a 1\r\nactor b 2\r\n"
      "channel a b 2 1\r\nchannel b a 1 2 2 3\r\n");
  EXPECT_EQ(serialize_sdf(sdf),
            serialize_sdf(parse_sdf("sdf s\nactor a 1\nactor b 2\n"
                                    "channel a b 2 1\nchannel b a 1 2 2 3\n")));
  EXPECT_EQ(sdf.name(), "s");
  EXPECT_EQ(sdf.channel(1).token_volume, 3u);
}

TEST(GarbageCorpus, TenMegabyteSingleLine) {
  std::string line(10u * 1024u * 1024u, 'x');
  expect_survives(line, "<long>");
  // Same bytes as a graph payload: one diagnostic, not ten million.
  DiagnosticBag bag;
  (void)parse_csdfg_with_spans("graph g\n" + line, "<long>", bag);
  bag.finalize();
  EXPECT_LE(bag.count(Severity::kError), 4u);
}

TEST(GarbageCorpus, EmbeddedNulBytes) {
  std::string text = "graph g\nnode a 1\n";
  text += '\0';
  text += "node b 1\nedge a b 1\n";
  expect_survives(text, "<nul>");
  std::string binary;
  for (int i = 0; i < 512; ++i) binary += static_cast<char>(i % 256);
  expect_survives(binary, "<binary>");
}

TEST(GarbageCorpus, DeeplyDuplicatedSections) {
  std::string graphs, schedules;
  for (int i = 0; i < 2000; ++i) {
    graphs += "graph g" + std::to_string(i) + "\n";
    schedules += "schedule 4 2\n";
  }
  DiagnosticBag bag;
  (void)parse_csdfg_with_spans(graphs, "<dup>", bag);
  bag.finalize();
  EXPECT_GE(bag.count(Severity::kError), 1u);

  DiagnosticBag bag2;
  const RawSchedule raw = parse_raw_schedule(schedules, "<dup>", bag2);
  bag2.finalize();
  EXPECT_TRUE(raw.has_directive);
  EXPECT_EQ(bag2.count(Severity::kError), 1999u);  // one per duplicate
}

TEST(GarbageCorpus, AllocationBombsAreParseErrorsNotAllocations) {
  // Strict schedule parser: the declared table would be gigabytes.
  const Csdfg g = parse_csdfg("graph g\nnode a 1\nedge a a 1\n");
  EXPECT_THROW((void)parse_schedule(g, std::string("schedule 2000000000 2\n")),
               ParseError);
  EXPECT_THROW(
      (void)parse_schedule(g, std::string("schedule 4 9999999\n")),
      ParseError);
  EXPECT_THROW((void)parse_schedule(
                   g, std::string("schedule 4 2\nplace a 1 2000000000\n")),
               ParseError);

  // Lenient layer: the same bombs become CCS-S001 diagnostics.
  for (const std::string text :
       {"schedule 2000000000 2\n", "schedule 4 9999999\n",
        "schedule 4 2\nplace a 1 2000000000\nplace a 99999999 1\n"}) {
    DiagnosticBag bag;
    (void)parse_raw_schedule(text, "<bomb>", bag);
    bag.finalize();
    EXPECT_GE(bag.count(Severity::kError), 1u) << text;
    for (const Diagnostic& d : bag.diagnostics())
      EXPECT_EQ(d.code, "CCS-S001") << text;
  }

  // Topology factories: a hostile machine size is rejected before the
  // O(P^2) distance matrix exists.
  for (const std::string spec :
       {"complete 1000000", "mesh 100000 100000", "mesh 0 5",
        "hypercube 40", "ring 99999999999999999999", "linear_array -3",
        "star 2000"}) {
    EXPECT_THROW((void)parse_topology(spec), ParseError) << spec;
  }
}

// Volumes are capped at kMaxEdgeVolume so that hops × c(e) and the
// start-up scheduler's step budget (a sum of diameter × c(e)) stay inside
// 64 bits.  A volume of 3074457345618258603 on linear_array 4 (diameter 3)
// used to wrap that budget, and `schedule` answered "start-up scheduling
// failed to converge (internal error)".
TEST(GarbageCorpus, VolumesPastTheCapAreRefusedEverywhere) {
  const std::string wraps =
      "graph g\nnode a 1\nnode b 1\nnode c 1\nnode d 1\nedge a b 0 1\n"
      "edge b c 0 3074457345618258603\nedge c d 0 1\nedge d a 1 1\n";
  DiagnosticBag bag;
  (void)parse_csdfg_with_spans(wraps, "<cap>", bag);
  bag.finalize();
  ASSERT_EQ(bag.diagnostics().size(), 1u);
  EXPECT_EQ(bag.diagnostics()[0].code, "CCS-G004");
  EXPECT_EQ(bag.diagnostics()[0].span.line, 7u);

  std::istringstream in(wraps);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"schedule", "-", "--arch", "linear_array 4"}, in, out,
                    err),
            1);
  EXPECT_NE(err.str().find("data volume 3074457345618258603 exceeds the "
                           "1000000 cap"),
            std::string::npos)
      << err.str();

  // The graph API, and so SDF expansion and generated graphs, refuse it.
  Csdfg g;
  const NodeId a = g.add_node("a", 1);
  const NodeId b = g.add_node("b", 1);
  EXPECT_NO_THROW(g.add_edge(a, b, 0, kMaxEdgeVolume));
  EXPECT_THROW(g.add_edge(a, b, 0, kMaxEdgeVolume + 1), GraphError);
  EXPECT_THROW((void)parse_sdf("actor a 1\nactor b 1\n"
                               "channel a b 1 1 0 1000001\n"),
               ParseError);
  // Two tokens of volume 600000 merge into one edge of volume 1200000.
  const SdfGraph merged = parse_sdf(
      "actor a 1\nactor b 1\nchannel a b 2 2 0 600000\nchannel b a 1 1 1\n");
  try {
    (void)expand_sdf(merged);
    ADD_FAILURE() << "expanded";
  } catch (const GraphError& e) {
    EXPECT_NE(std::string(e.what()).find("merged volume 1200000 exceeds"),
              std::string::npos)
        << e.what();
  }
}

// "-1" once read as volume 2^64 - 1 and priced the a->b transfer at -1
// step, so this graph certified a 5-step table on linear_array 2.
TEST(GarbageCorpus, NegativeVolumesNoLongerCertify) {
  std::istringstream in(
      "graph g\nnode a 4\nnode b 4\nedge a b 1 -1\nedge b a 1 1\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"schedule", "-", "--arch", "linear_array 2", "--policy",
                     "relax", "--certify"},
                    in, out, err),
            1);
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(err.str(), "error: line 4: edge a->b: data volume must be >= 1\n");
}

// A task time times a PE speed can pass INT_MAX.  The certifier prices end
// steps in 64 bits and checks exclusivity on the table's rows only, so the
// placement is an S003 finding; in 32 bits the end step wrapped negative,
// the table check passed, and the unfold cross-check aborted the process.
TEST(GarbageCorpus, CertifierEndStepsDoNotWrap) {
  const Csdfg g = parse_csdfg(
      "graph g\nnode a 2000000000\nnode b 1\nedge a b 1 1\nedge b a 1 1\n");
  const Topology topo = make_linear_array(2);
  const StoreAndForwardModel comm(topo);
  DiagnosticBag bag;
  const RawSchedule raw = parse_raw_schedule(
      "schedule 10 2\nspeeds 2 1\nplace a 1 1\nplace b 2 1\n", "<wrap>", bag);
  EXPECT_FALSE(certify_schedule(g, raw, topo, comm, {}, bag));
  bag.finalize();
  bool outside = false;
  for (const Diagnostic& d : bag.diagnostics())
    outside |= d.code == "CCS-S003" &&
               d.message.find("steps [1,4000000000]") != std::string::npos;
  EXPECT_TRUE(outside) << render_text(bag);
}

TEST(GarbageCorpus, HugeNumericFieldsInEveryGrammar) {
  expect_survives("graph g\nnode a 99999999999999999999\n", "<num>");
  expect_survives("graph g\nnode a 1\nedge a a 99999999999999999999\n",
                  "<num>");
  expect_survives("fail p99999999999999999999\n", "<num>");
  expect_survives("fail p1 @iter 99999999999999999999\n", "<num>");
  expect_survives("jitter C +99999999999999999999\n", "<num>");
  expect_survives("schedule 99999999999999999999 1\n", "<num>");
}

/// Runs one in-process CLI command on `graph` (read from stdin) and returns
/// stdout; a non-zero exit fails the calling test.
std::string cli_out(const std::vector<std::string>& args,
                    const std::string& graph) {
  std::istringstream in(graph);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(args, in, out, err), 0) << err.str();
  return out.str();
}

// Legal graphs whose times and delays sit at the int limit: the bound
// arithmetic must neither overflow nor sweep ~10^9 denominators.
TEST(GarbageCorpus, ExtremeTimesAndDelaysGetExactBounds) {
  const std::string huge_delay =
      "graph g\nnode a 1\nnode b 1\nedge a b 2147483647 1\n";
  const std::string huge_cycle =
      "graph g\nnode a 2147483647\nnode b 2147483646\n"
      "edge a b 2147483647 1\nedge b a 2147483647 1\n";
  const std::string near_million =
      "graph g\nnode a 1\nnode b 2\nedge a b 3 1\nedge b a 4 1\n"
      "edge a a 999999 1\nedge b b 1000000 1\n";
  const auto with_mesh = [](const std::string& cmd) {
    return std::vector<std::string>{cmd, "--arch", "mesh 2 2", "-"};
  };

  EXPECT_EQ(cli_out({"bound", "-"}, huge_delay), "0\n");
  EXPECT_EQ(cli_out({"lint", "-"}, huge_delay), "");
  EXPECT_EQ(cli_out(with_mesh("lint"), huge_delay),
            "<stdin>:4: warning: edge a -> b: volume 1 cannot cross even one "
            "link within the projected schedule length 1; the endpoints are "
            "pinned to one processor [CCS-A002]\n"
            "0 error(s), 1 warning(s), 0 note(s)\n");
  const std::string delay_report = cli_out(with_mesh("analyze"), huge_delay);
  EXPECT_NE(delay_report.find(
                "<stdin>: note: lower bound 1 (this delay placement only): cut "
                "after the 1 fastest PE(s): one-side fits need L >= 1, "
                "crossing any edge needs L >= 1 in its delay window; floor 1 "
                "(this delay placement only) [CCS-B005]\n"),
            std::string::npos)
      << delay_report;
  EXPECT_NE(delay_report.find("0 error(s), 0 warning(s), 3 note(s)\n"),
            std::string::npos);
  EXPECT_NE(delay_report.find("composite lower bound 1 (CCS-B002) on "
                              "mesh(2x2)\n"),
            std::string::npos);

  EXPECT_EQ(cli_out({"bound", "-"}, huge_cycle), "4294967293/4294967294\n");
  EXPECT_EQ(cli_out({"lint", "-"}, huge_cycle), "");
  EXPECT_EQ(cli_out(with_mesh("lint"), huge_cycle), "");
  const std::string cycle_report = cli_out(with_mesh("analyze"), huge_cycle);
  for (const char* line :
       {"<stdin>: note: lower bound 1: critical cycle a -> b -> a "
        "(t=4294967293, d=4294967294, ratio 4294967293/4294967294); L >= "
        "ceil(4294967293/4294967294) = 1 [CCS-B001]\n",
        "<stdin>: note: lower bound 2: critical cycle (t=4294967293, "
        "d=4294967294, |C|=2): on one PE L >= 4294967293, split across PEs "
        "L >= ceil((4294967293*1 + 1 + 1)/4294967294) = 2; floor 2 "
        "[CCS-B004]\n",
        "<stdin>: note: lower bound 1000000000 (this delay placement only): "
        "cut after the 1 fastest PE(s): one-side fits need L >= 1431655765, "
        "crossing any edge needs L >= 2 in its delay window; floor "
        "1000000000 (this delay placement only) [CCS-B005]\n",
        "0 error(s), 0 warning(s), 5 note(s)\n",
        "composite lower bound 1000000000 (CCS-B002) on mesh(2x2)\n"})
    EXPECT_NE(cycle_report.find(line), std::string::npos)
        << line << "\n" << cycle_report;

  EXPECT_EQ(cli_out({"bound", "-"}, near_million), "3/7\n");
  EXPECT_EQ(cli_out(with_mesh("lint"), near_million), "");
  const std::string far_report = cli_out(with_mesh("analyze"), near_million);
  for (const char* line :
       {"<stdin>: note: lower bound 1: critical cycle a -> b -> a (t=3, d=7, "
        "ratio 3/7); L >= ceil(3/7) = 1 [CCS-B001]\n",
        "<stdin>: note: lower bound 1: critical cycle (t=3, d=7, |C|=2): on "
        "one PE L >= 3, split across PEs L >= ceil((3*1 + 1 + 1)/7) = 1; "
        "floor 1 [CCS-B004]\n",
        "composite lower bound 2 (CCS-B002) on mesh(2x2)\n"})
    EXPECT_NE(far_report.find(line), std::string::npos)
        << line << "\n" << far_report;
}

// Task times at the int limit.  DAG timing is 64-bit, so info and lint
// answer; the Solver refuses any body whose longest task alone exceeds the
// kMaxScheduleLength-step table cap (CCS-E001) instead of list-scheduling
// billions of control steps, so schedule, stress and serve answer at once.
TEST(GarbageCorpus, HugeTaskTimesAreAnsweredOrRefusedUpFront) {
  const std::string chain =
      "graph g\nnode a 2147483647\nnode b 2147483647\nedge a b 0 1\n";
  const std::string cycle =
      "graph g\nnode a 2147483647\nnode b 1\nedge a b 1 1\nedge b a 1 1\n";
  // Just over the cap: any table for it would exceed what the schedule
  // readers accept.
  const std::string over_cap =
      "graph g\nnode a 2000000\nnode b 1\nedge a b 1 1\nedge b a 1 1\n";

  EXPECT_NE(
      cli_out({"info", "-"}, chain).find("critical path:    4294967294\n"),
      std::string::npos);
  EXPECT_EQ(cli_out({"lint", "--arch", "mesh 2 2", "-"}, chain), "");

  const std::string graph_path = ::testing::TempDir() + "/huge_times.csdfg";
  for (const auto& [text, task] :
       {std::pair{chain, std::string("a")}, std::pair{cycle, std::string("a")},
        std::pair{over_cap, std::string("a")}}) {
    std::ofstream(graph_path) << text;
    const std::vector<std::vector<std::string>> commands = {
        {"schedule", graph_path, "--arch", "mesh 2 2"},
        {"schedule", graph_path, "--arch", "mesh 2 2", "--portfolio"},
        {"stress", graph_path, "--arch", "mesh 2 2", "--faults", "-"},
    };
    for (const std::vector<std::string>& args : commands) {
      std::istringstream in("fail p0\n");
      std::ostringstream out, err;
      EXPECT_EQ(run_cli(args, in, out, err), 1) << args[0] << "\n" << text;
      EXPECT_EQ(out.str(), "") << args[0];
      const std::string line = err.str();
      EXPECT_EQ(line.rfind("error: task '" + task + "' takes ", 0), 0u)
          << line;
      EXPECT_NE(line.find("over the 1000000-step schedule limit\n"),
                std::string::npos)
          << line;
      EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1) << line;
    }
  }

  // Serve answers with an error response within the request's deadline.
  std::string input;
  for (const std::string& text : {chain, cycle}) {
    std::string escaped;
    for (const char c : text)
      escaped += c == '\n' ? std::string("\\n") : std::string(1, c);
    input += "{\"op\":\"solve\",\"graph\":\"" + escaped +
             "\",\"arch\":\"mesh 2 2\",\"deadline_ms\":100}\n";
  }
  std::istringstream in(input);
  std::ostringstream out, err;
  const ServeSummary summary = run_serve(in, out, err, ServeOptions{});
  EXPECT_EQ(summary.answered, 2u);
  std::istringstream replies(out.str());
  std::string reply;
  while (std::getline(replies, reply)) {
    EXPECT_NE(reply.find("\"status\":\"error\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("CCS-E001"), std::string::npos) << reply;
  }
}

TEST(GarbageCorpus, DeterministicRandomBytesNeverCrashAnyParser) {
  // A tiny LCG (constants from Numerical Recipes) — fixed seed, so every
  // run feeds the parsers the exact same 256 garbage documents.
  std::uint32_t state = 0xC55C5EEDu;
  const auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state;
  };
  for (int doc = 0; doc < 256; ++doc) {
    std::string text;
    const std::size_t len = next() % 4096;
    text.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t r = next();
      // Bias toward structure: mix raw bytes with grammar keywords so the
      // fuzz reaches past the first tokenizer branch.
      switch (r % 12) {
        case 0: text += "graph "; break;
        case 1: text += "node "; break;
        case 2: text += "edge "; break;
        case 3: text += "schedule "; break;
        case 4: text += "place "; break;
        case 5: text += "fail p"; break;
        case 6: text += "link p"; break;
        case 7: text += "jitter "; break;
        case 8: text += '\n'; break;
        case 9: text += std::to_string(static_cast<int>(r % 1000) - 500);
                break;
        default: text += static_cast<char>(r % 256); break;
      }
    }
    expect_survives(text, "<fuzz" + std::to_string(doc) + ">");
  }
}

// The resident serve loop faces the same hostile world as the batch
// parsers, but a crash there kills every queued request — so each hostile
// line must come back as a structured error response and the loop must
// keep answering afterwards.
TEST(GarbageCorpus, HostileServeRequestLinesGetStructuredErrors) {
  std::vector<std::string> lines;
  // Truncated JSON: object never closes.
  lines.push_back("{\"op\":\"solve\",\"graph\":\"graph g");
  // Not JSON at all.
  lines.push_back("graph g node a 1");
  // Embedded NUL bytes inside an otherwise plausible line.
  {
    std::string nul_line = "{\"op\":\"solve\",\"id\":\"n\",\"graph\":\"g\"}";
    nul_line[12] = '\0';
    nul_line[20] = '\0';
    lines.push_back(nul_line);
  }
  // Absurd deadline: beyond the accepted range.
  lines.push_back(
      "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"mesh 2 1\","
      "\"deadline_ms\":99999999999999999}");
  // Unknown op.
  lines.push_back("{\"op\":\"destroy\"}");
  // Well-formed solve requests but for one field the reader refuses: a
  // nested object, null, a number JSON does not allow, an array of
  // strings, fractional speeds, and a seed one past 2^62.
  for (const char* field :
       {"\"opts\":{\"passes\":3}", "\"passes\":null", "\"passes\":+5",
        "\"speeds\":[\"a\"]", "\"speeds\":[1.9,2.5]",
        "\"seed\":4611686018427387905"})
    lines.push_back(
        "{\"op\":\"solve\",\"graph\":\"graph g\\nnode a 1\","
        "\"arch\":\"mesh 2 1\"," +
        std::string(field) + "}");
  // Deterministic binary garbage (same LCG as the parser fuzz above).
  {
    std::uint32_t state = 0x5E55EEDu;
    std::string bin;
    for (int i = 0; i < 512; ++i) {
      state = state * 1664525u + 1013904223u;
      char c = static_cast<char>(state % 256);
      if (c == '\n') c = '?';  // keep it a single hostile line
      bin += c;
    }
    lines.push_back(bin);
  }

  std::string input;
  for (const auto& line : lines) input += line + "\n";

  std::istringstream in(input);
  std::ostringstream out, err;
  ServeOptions opts;
  opts.jobs = 2;
  const ServeSummary summary = run_serve(in, out, err, opts);

  EXPECT_EQ(summary.lines, lines.size());
  EXPECT_EQ(summary.answered, lines.size());
  EXPECT_EQ(summary.parse_errors, lines.size());

  std::size_t responses = 0;
  std::istringstream replies(out.str());
  std::string reply;
  while (std::getline(replies, reply)) {
    ++responses;
    EXPECT_NE(reply.find("\"status\":\"error\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("CCS-E001"), std::string::npos) << reply;
  }
  EXPECT_EQ(responses, lines.size());
}

// A single ~10 MB line must be refused by the length cap before any JSON
// parsing touches it, and the loop must go on to answer the next request.
TEST(GarbageCorpus, TenMegabyteLineIsRefusedByTheCap) {
  std::string huge = "{\"op\":\"solve\",\"graph\":\"";
  huge.append(10u * 1024u * 1024u, 'a');
  huge += "\"}";

  std::string input = huge + "\n";
  input += "{\"op\":\"shutdown\"}\n";

  std::istringstream in(input);
  std::ostringstream out, err;
  ServeOptions opts;  // default max_line_bytes: 1 MiB
  const ServeSummary summary = run_serve(in, out, err, opts);

  EXPECT_EQ(summary.lines, 2u);
  EXPECT_EQ(summary.answered, 2u);

  std::istringstream replies(out.str());
  std::string first;
  ASSERT_TRUE(std::getline(replies, first));
  EXPECT_NE(first.find("\"status\":\"error\""), std::string::npos) << first;
  EXPECT_NE(first.find("CCS-E001"), std::string::npos) << first;
  std::string second;
  ASSERT_TRUE(std::getline(replies, second));
  EXPECT_NE(second.find("\"op\":\"shutdown\""), std::string::npos) << second;
}

// parse_serve_request itself (below the service layer) must classify the
// same hostile shapes without throwing.
// Architecture parameters are whole numbers: "2abc" is refused by the
// parser, the CLI (exit 1) and serve (CCS-E001), never read as 2.
TEST(GarbageCorpus, TrailingGarbageInArchitectureNumbersIsRefused) {
  for (const std::string spec : {"mesh 2abc 2", "mesh 2 2x", "ring 4.5",
                                 "complete +8", "linear_array 0x8"})
    EXPECT_THROW((void)parse_topology(spec), ParseError) << spec;
  try {
    (void)parse_topology("mesh 2abc 2");
    ADD_FAILURE() << "mesh 2abc 2 parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("bad number '2abc'"),
              std::string::npos)
        << e.what();
  }

  const std::string graph = "graph g\nnode a 1\nnode b 2\nedge a b 0 1\n";
  std::istringstream in(graph);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"schedule", "-", "--arch", "mesh 2abc 2"}, in, out, err),
            1);
  EXPECT_NE(err.str().find("bad number '2abc'"), std::string::npos)
      << err.str();

  std::istringstream requests(
      "{\"op\":\"solve\",\"id\":\"a\",\"graph\":\"graph g\\nnode a 1\","
      "\"arch\":\"mesh 2abc 2\"}\n");
  std::ostringstream replies, log;
  const ServeSummary summary = run_serve(requests, replies, log, {});
  EXPECT_EQ(summary.answered, 1u);
  EXPECT_NE(replies.str().find("\"status\":\"error\""), std::string::npos)
      << replies.str();
  EXPECT_NE(replies.str().find("CCS-E001"), std::string::npos)
      << replies.str();
  EXPECT_NE(replies.str().find("bad number '2abc'"), std::string::npos)
      << replies.str();
}

TEST(GarbageCorpus, ServeCodecSurvivesHostileLines) {
  const std::vector<std::string> corpus = {
      "{",
      "}",
      "{\"op\":",
      "{\"op\":\"solve\"}",                       // missing graph/arch
      "{\"op\":\"solve\",\"graph\":\"g\"}",        // missing arch
      "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"mesh 2 1\","
      "\"deadline_ms\":\"soon\"}",                 // non-integral deadline
      "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"mesh 2 1\","
      "\"mode\":\"warp\"}",                        // unknown mode
      "{\"op\":\"solve\",\"graph\":\"g\",\"arch\":\"mesh 2 1\","
      "\"jobs\":-4}",                              // out-of-range jobs
      std::string("\0\0\0", 3),
  };
  for (const auto& line : corpus) {
    const ServeParse parsed = parse_serve_request(line, 1u << 20);
    EXPECT_FALSE(parsed.ok) << line;
    EXPECT_FALSE(parsed.blank) << line;
    EXPECT_FALSE(parsed.code.empty()) << line;
  }
  // Sanity: a well-formed request still parses after all that.
  const ServeParse good = parse_serve_request(
      "{\"op\":\"solve\",\"graph\":\"graph g\\nnode a 1\","
      "\"arch\":\"mesh 2 1\"}",
      1u << 20);
  EXPECT_TRUE(good.ok);
  // Integers read back exactly: a seed of 2^62 is the largest accepted.
  const ServeParse seeded = parse_serve_request(
      "{\"op\":\"solve\",\"graph\":\"graph g\\nnode a 1\","
      "\"arch\":\"mesh 2 1\",\"seed\":4611686018427387904}",
      1u << 20);
  ASSERT_TRUE(seeded.ok) << seeded.message;
  EXPECT_EQ(seeded.request.seed, 1ULL << 62);
}

}  // namespace
}  // namespace ccs
