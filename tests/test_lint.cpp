// Tests of the static analysis subsystem (src/analysis): the diagnostics
// engine, the lint pass framework, the malformed-graph corpus under
// examples/data/bad/, and the `ccsched lint` CLI command.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "analysis/canon.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lint.hpp"
#include "analysis/rules.hpp"
#include "cli/cli.hpp"
#include "io/text_format.hpp"
#include "util/error.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

std::string bad_path(const std::string& name) {
  return std::string(CCS_EXAMPLES_DATA_DIR) + "/bad/" + name;
}

std::string good_path(const std::string& name) {
  return std::string(CCS_EXAMPLES_DATA_DIR) + "/" + name;
}

std::string slurp_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Runs the full lint pipeline (lenient parse + passes) over a file.
DiagnosticBag lint_file(const std::string& path, const char* arch,
                        const std::vector<int>& speeds = {}) {
  DiagnosticBag bag;
  const ParsedCsdfg parsed = parse_csdfg_with_spans(slurp_file(path), path, bag);
  std::optional<Topology> topo;
  LintOptions options;
  if (arch != nullptr) {
    topo = parse_topology(arch);
    options.topology = &*topo;
  }
  options.pe_speeds = speeds;
  run_lint_passes({parsed.graph, parsed.spans, options}, bag);
  bag.finalize();
  return bag;
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

// ---------------------------------------------------------------------------
// The malformed-graph corpus: one file per lint code, each firing exactly
// its own diagnostic at the documented line (0 = whole file).

struct CorpusCase {
  const char* file;
  const char* code;
  std::size_t line;
  const char* arch;     // nullptr = graph-only lint
  const char* speeds;   // nullptr = homogeneous
};

const CorpusCase kCorpus[] = {
    {"p001_syntax_error.csdfg", "CCS-P001", 3, nullptr, nullptr},
    {"p002_unknown_node.csdfg", "CCS-P002", 6, nullptr, nullptr},
    {"p003_misplaced_graph.csdfg", "CCS-P003", 6, nullptr, nullptr},
    {"g001_zero_delay_cycle.csdfg", "CCS-G001", 5, nullptr, nullptr},
    {"g002_zero_delay_self_loop.csdfg", "CCS-G002", 6, nullptr, nullptr},
    {"g003_non_positive_time.csdfg", "CCS-G003", 3, nullptr, nullptr},
    {"g004_non_positive_volume.csdfg", "CCS-G004", 5, nullptr, nullptr},
    {"g005_negative_delay.csdfg", "CCS-G005", 5, nullptr, nullptr},
    {"g006_duplicate_edge.csdfg", "CCS-G006", 7, nullptr, nullptr},
    {"g007_isolated_node.csdfg", "CCS-G007", 5, nullptr, nullptr},
    {"g008_delay_starved.csdfg", "CCS-G008", 6, nullptr, nullptr},
    {"a001_insufficient_processors.csdfg", "CCS-A001", 0, "linear_array 2",
     nullptr},
    {"a002_oversized_communication.csdfg", "CCS-A002", 5, "mesh 2 2",
     nullptr},
    {"a003_speed_list_mismatch.csdfg", "CCS-A003", 0, "complete 3", "1,2"},
};

std::vector<int> parse_speed_list(const char* csv) {
  std::vector<int> speeds;
  if (csv == nullptr) return speeds;
  std::istringstream ls(csv);
  std::string tok;
  while (std::getline(ls, tok, ',')) speeds.push_back(std::stoi(tok));
  return speeds;
}

TEST(LintCorpus, EachFileFiresExactlyItsCode) {
  for (const CorpusCase& c : kCorpus) {
    const DiagnosticBag bag =
        lint_file(bad_path(c.file), c.arch, parse_speed_list(c.speeds));
    ASSERT_EQ(bag.size(), 1u) << c.file << '\n' << render_text(bag);
    EXPECT_EQ(bag.diagnostics()[0].code, c.code) << c.file;
    EXPECT_EQ(bag.diagnostics()[0].span.line, c.line) << c.file;
    EXPECT_EQ(bag.diagnostics()[0].span.file, bad_path(c.file));
  }
}

TEST(LintCorpus, CorpusCoversEveryRule) {
  std::set<std::string> covered;
  for (const CorpusCase& c : kCorpus) covered.insert(c.code);
  for (const LintRule& r : all_rules()) {
    // Schedule-certification rules (CCS-S###) are pinned by the
    // bad_schedules corpus in test_certify.cpp, fault-spec rules
    // (CCS-F###) by the bad-spec corpus in test_robust.cpp, solver
    // request rules (CCS-E###) by test_solver.cpp, and bound notes
    // (CCS-B###) by test_bounds.cpp — none come from lint inputs.
    // Canonical-form rules (CCS-N###) are corpus-level: N001/N003 compare
    // graphs *across* files (audit_corpus) and N002 is a note, which would
    // break the every-bad-file-fails---werror invariant.  They are pinned
    // by the dedicated tests below and in test_canon.cpp instead.
    if (r.code.rfind("CCS-S", 0) == 0 || r.code.rfind("CCS-F", 0) == 0 ||
        r.code.rfind("CCS-E", 0) == 0 || r.code.rfind("CCS-B", 0) == 0 ||
        r.code.rfind("CCS-N", 0) == 0)
      continue;
    EXPECT_TRUE(covered.count(std::string(r.code)))
        << r.code << " has no corpus file";
  }
}

TEST(LintCorpus, ShippedGoodExamplesLintClean) {
  for (const char* file : {"paper_fig1b.csdfg", "macroblock.csdfg"}) {
    const DiagnosticBag bag = lint_file(good_path(file), "mesh 2 2");
    EXPECT_TRUE(bag.empty()) << file << '\n' << render_text(bag);
  }
}

// ---------------------------------------------------------------------------
// CLI: exit codes, --werror, and the three output formats.

TEST(LintCli, EveryCorpusFileFailsUnderWerrorInAllFormats) {
  for (const CorpusCase& c : kCorpus) {
    for (const char* format : {"text", "jsonl", "sarif"}) {
      std::vector<std::string> args{"lint", bad_path(c.file), "--werror",
                                    "--format", format};
      if (c.arch != nullptr) {
        args.emplace_back("--arch");
        args.emplace_back(c.arch);
      }
      if (c.speeds != nullptr) {
        args.emplace_back("--speeds");
        args.emplace_back(c.speeds);
      }
      const CliResult r = cli(args);
      EXPECT_EQ(r.code, 1) << c.file << " --format " << format << '\n'
                           << r.out << r.err;
      EXPECT_NE(r.out.find(c.code), std::string::npos)
          << c.file << " --format " << format << '\n'
          << r.out;
    }
  }
}

TEST(LintCli, TextFormatPointsAtTheOffendingLine) {
  const CliResult r = cli({"lint", bad_path("g001_zero_delay_cycle.csdfg")});
  EXPECT_EQ(r.code, 1);  // errors fail even without --werror
  EXPECT_NE(r.out.find("g001_zero_delay_cycle.csdfg:5: error:"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("[CCS-G001]"), std::string::npos);
}

TEST(LintCli, WarningsPassWithoutWerrorAndFailWithIt) {
  const std::string path = bad_path("g007_isolated_node.csdfg");
  EXPECT_EQ(cli({"lint", path}).code, 0);
  EXPECT_EQ(cli({"lint", path, "--werror"}).code, 1);
}

TEST(LintCli, CleanGraphProducesNoOutputAndExitsZero) {
  const CliResult r =
      cli({"lint", good_path("macroblock.csdfg"), "--arch", "mesh 2 2",
           "--werror"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;
  EXPECT_EQ(r.out, "");
}

TEST(LintCli, RejectsUnknownFormatAndOrphanSpeeds) {
  EXPECT_EQ(cli({"lint", "-", "--format", "xml"}, "node a 1\n").code, 2);
  EXPECT_EQ(cli({"lint", "-", "--speeds", "1,2"}, "node a 1\n").code, 2);
}

TEST(LintCli, ReadsStdin) {
  const CliResult r = cli({"lint", "-"}, "node a 1\nedge a a 0 1\n");
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("<stdin>:2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("CCS-G002"), std::string::npos);
}

TEST(LintCli, SchedulePreflightWarnsOnStderrWithoutFailing) {
  const std::string starved =
      "graph s\nnode a 5\nnode b 5\nedge a b 0 1\nedge b a 1 1\n";
  const CliResult r =
      cli({"schedule", "-", "--arch", "complete 2", "--quiet"}, starved);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("CCS-G008"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("CCS-G008"), std::string::npos);  // stdout stays clean
}

// ---------------------------------------------------------------------------
// Renderers.

DiagnosticBag two_findings() {
  DiagnosticBag bag;
  bag.add("CCS-G007", {"g.csdfg", 4}, "node 'x' has no incident edges");
  bag.add("CCS-G001", {"g.csdfg", 2}, "zero-delay cycle a -> a");
  bag.finalize();
  return bag;
}

TEST(Renderers, TextSortsByLineAndSummarizes) {
  const std::string text = render_text(two_findings());
  const auto first = text.find("g.csdfg:2: error:");
  const auto second = text.find("g.csdfg:4: warning:");
  ASSERT_NE(first, std::string::npos) << text;
  ASSERT_NE(second, std::string::npos) << text;
  EXPECT_LT(first, second);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos);
}

TEST(Renderers, EmptyBagRendersNothing) {
  const DiagnosticBag bag;
  EXPECT_EQ(render_text(bag), "");
  EXPECT_EQ(render_jsonl(bag), "");
}

TEST(Renderers, JsonlEmitsOneObjectPerLine) {
  const std::string jsonl = render_jsonl(two_findings());
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"code\":\"CCS-G00"), std::string::npos);
    EXPECT_NE(line.find("\"line\":"), std::string::npos);
  }
  EXPECT_EQ(count, 2u);
}

TEST(DiagnosticBag, FinalizeDedupesExactDuplicates) {
  DiagnosticBag bag;
  bag.add("CCS-G007", {"g.csdfg", 4}, "node 'x' has no incident edges");
  bag.add("CCS-G007", {"g.csdfg", 4}, "node 'x' has no incident edges");
  bag.finalize();
  EXPECT_EQ(bag.size(), 1u);
}

TEST(DiagnosticBag, FailureRules) {
  DiagnosticBag warn_only;
  warn_only.add("CCS-G007", {"g", 1}, "w");
  EXPECT_FALSE(warn_only.fails(false));
  EXPECT_TRUE(warn_only.fails(true));
  DiagnosticBag with_error;
  with_error.add("CCS-G001", {"g", 1}, "e");
  EXPECT_TRUE(with_error.fails(false));
}

// ---------------------------------------------------------------------------
// SARIF: syntactic JSON validity plus the 2.1.0 schema shape.

/// Minimal recursive-descent JSON syntax checker (objects, arrays, strings
/// with escapes, numbers, literals).  Returns true iff `text` is one valid
/// JSON value with nothing but whitespace after it.
class JsonChecker {
public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Sarif, DocumentIsValidJsonWithTheSchemaShape) {
  const CliResult r = cli({"lint", bad_path("g001_zero_delay_cycle.csdfg"),
                           "--format", "sarif"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(JsonChecker(r.out).valid()) << r.out;
  // Top-level shape.
  EXPECT_NE(r.out.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(r.out.find("\"$schema\":\"https://json.schemastore.org/"
                       "sarif-2.1.0.json\""),
            std::string::npos);
  // The driver advertises the full rule catalogue.
  EXPECT_NE(r.out.find("\"name\":\"ccsched-lint\""), std::string::npos);
  for (const LintRule& rule : all_rules())
    EXPECT_NE(r.out.find("\"id\":\"" + std::string(rule.code) + "\""),
              std::string::npos)
        << rule.code;
  // The result references the rule and the physical location.
  EXPECT_NE(r.out.find("\"ruleId\":\"CCS-G001\""), std::string::npos);
  EXPECT_NE(r.out.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(r.out.find("\"physicalLocation\""), std::string::npos);
  EXPECT_NE(r.out.find("\"startLine\":5"), std::string::npos);
}

TEST(Sarif, EmptyBagStillEmitsAValidRun) {
  const CliResult r = cli({"lint", good_path("paper_fig1b.csdfg"),
                           "--format", "sarif"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(JsonChecker(r.out).valid()) << r.out;
  EXPECT_NE(r.out.find("\"results\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule catalogue invariants.

TEST(Rules, CodesAreUniqueAndLookupsRoundTrip) {
  std::set<std::string> codes;
  for (const LintRule& r : all_rules()) {
    EXPECT_TRUE(codes.insert(std::string(r.code)).second)
        << "duplicate " << r.code;
    const LintRule* found = find_rule(r.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->code, r.code);
    EXPECT_EQ(all_rules()[rule_index(r.code)].code, r.code);
    EXPECT_FALSE(r.summary.empty());
    EXPECT_FALSE(r.remedy.empty());
  }
  EXPECT_EQ(find_rule("CCS-X999"), nullptr);
  EXPECT_EQ(rule_index("CCS-X999"), all_rules().size());
}

TEST(Rules, EveryRegisteredPassHasACatalogueEntry) {
  for (const LintPass* pass : lint_passes())
    EXPECT_NE(find_rule(pass->rule().code), nullptr);
}

// ---------------------------------------------------------------------------
// Structured ParseError (the pair the diagnostics engine consumes).

TEST(ParseErrors, CarryTheStructuredLineMessagePair) {
  try {
    (void)parse_csdfg("node A 1\nnode B\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.detail(), "node: expected <name> <time>");
    EXPECT_STREQ(e.what(), "line 2: node: expected <name> <time>");
  }
}

TEST(ParseErrors, ArchitectureMessagesEchoTheFullSpec) {
  for (const char* spec : {"mesh 4", "mesh four two", "megastructure 8",
                           "linear_array -3"}) {
    try {
      (void)parse_topology(spec);
      FAIL() << "should have thrown for '" << spec << "'";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    std::string("'").append(spec).append("'")),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseErrors, LenientParseRecoversAMaximalGraph) {
  // One bad node time (clamped), one unresolvable edge (skipped): the
  // remaining structure must survive for downstream passes.
  DiagnosticBag bag;
  const ParsedCsdfg parsed = parse_csdfg_with_spans(
      "graph partial\nnode a 0\nnode b 1\nedge a b 1 1\nedge a z 0 1\n",
      "partial.csdfg", bag);
  bag.finalize();
  EXPECT_EQ(bag.size(), 2u) << render_text(bag);
  EXPECT_EQ(parsed.graph.node_count(), 2u);
  EXPECT_EQ(parsed.graph.edge_count(), 1u);
  EXPECT_EQ(parsed.graph.node(0).time, 1);  // clamped
  EXPECT_EQ(parsed.spans.graph_line, 1u);
  EXPECT_EQ(parsed.spans.node_lines, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(parsed.spans.edge_lines, (std::vector<std::size_t>{4}));
}

// ---------------------------------------------------------------------------
// The canonical-form rules (CCS-N###, analysis/canon.hpp).

TEST(CanonAudit, ShippedCorpusHasExactlyTheAnnotatedDuplicates) {
  // The CCS-N001 sweep over the workload library plus every good example
  // file.  Exactly two duplicates exist, both deliberate and annotated in
  // the files themselves: the shipped example files paper_fig1b/paper_fig7
  // are the library builders paper_example6/paper_example19, serialized.
  const Csdfg lib6 = paper_example6();
  const Csdfg lib19 = paper_example19();
  const Csdfg elliptic = elliptic_filter();
  const Csdfg lattice = lattice_filter();
  const Csdfg biquad = iir_biquad_cascade(2);
  const Csdfg fir = fir_filter(6);
  const Csdfg diffeq = diffeq_solver();
  const Csdfg corr = correlator(4);
  const Csdfg fig1b = parse_csdfg(slurp_file(good_path("paper_fig1b.csdfg")));
  const Csdfg fig7 = parse_csdfg(slurp_file(good_path("paper_fig7.csdfg")));
  const Csdfg macroblock =
      parse_csdfg(slurp_file(good_path("macroblock.csdfg")));

  DiagnosticBag bag;
  audit_corpus({{"paper_example6", &lib6},
                {"paper_example19", &lib19},
                {"elliptic_filter", &elliptic},
                {"lattice_filter", &lattice},
                {"iir_biquad_cascade(2)", &biquad},
                {"fir_filter(6)", &fir},
                {"diffeq_solver", &diffeq},
                {"correlator(4)", &corr},
                {"paper_fig1b.csdfg", &fig1b},
                {"paper_fig7.csdfg", &fig7},
                {"macroblock.csdfg", &macroblock}},
               bag);
  bag.finalize();
  ASSERT_EQ(bag.size(), 2u) << render_text(bag);
  EXPECT_EQ(bag.diagnostics()[0].code, "CCS-N001");
  EXPECT_EQ(bag.diagnostics()[0].span.file, "paper_fig1b.csdfg");
  EXPECT_NE(bag.diagnostics()[0].message.find("'paper_example6'"),
            std::string::npos)
      << bag.diagnostics()[0].message;
  EXPECT_EQ(bag.diagnostics()[1].code, "CCS-N001");
  EXPECT_EQ(bag.diagnostics()[1].span.file, "paper_fig7.csdfg");
  EXPECT_NE(bag.diagnostics()[1].message.find("'paper_example19'"),
            std::string::npos)
      << bag.diagnostics()[1].message;
}

TEST(LintPasses, AutomorphismGroupNoteFiresOnSymmetricGraph) {
  DiagnosticBag bag;
  const ParsedCsdfg parsed = parse_csdfg_with_spans(
      "graph twins\nnode a 1\nnode b 1\nedge a b 1 1\nedge b a 1 1\n",
      "twins.csdfg", bag);
  run_lint_passes({parsed.graph, parsed.spans, {}}, bag);
  bag.finalize();
  bool found = false;
  for (const Diagnostic& d : bag.diagnostics()) {
    if (d.code != "CCS-N002") continue;
    found = true;
    EXPECT_EQ(d.severity, Severity::kNote);
    EXPECT_NE(d.message.find("{a,b}"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("2 attribute-preserving"), std::string::npos)
        << d.message;
  }
  EXPECT_TRUE(found) << render_text(bag);
  // A note never fails the exit code, even under --werror.
  EXPECT_FALSE(DiagnosticBag{}.fails(true));
}

TEST(LintPasses, AutomorphismGroupStaysQuietOnAsymmetricGraphs) {
  const DiagnosticBag bag = lint_file(good_path("paper_fig1b.csdfg"), nullptr);
  for (const Diagnostic& d : bag.diagnostics())
    EXPECT_NE(d.code, "CCS-N002") << d.message;
}

}  // namespace
}  // namespace ccs
