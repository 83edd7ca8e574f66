// Unit tests for the text interchange formats, and the differential sweep
// of the graph reader against its referee (tests/graph_reader_referee.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph_reader_referee.hpp"
#include "io/text_format.hpp"
#include "test_graphs.hpp"
#include "util/error.hpp"
#include "workloads/library.hpp"

namespace ccs {
namespace {

TEST(TextFormat, ParsesAMinimalGraph) {
  const Csdfg g = parse_csdfg(
      "graph demo\n"
      "node A 1\n"
      "node B 2\n"
      "edge A B 0 1\n"
      "edge B A 2 3\n");
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge(1).delay, 2);
  EXPECT_EQ(g.edge(1).volume, 3u);
}

TEST(TextFormat, VolumeDefaultsToOne) {
  const Csdfg g = parse_csdfg(
      "node A 1\nnode B 1\nedge A B 0\n");
  EXPECT_EQ(g.edge(0).volume, 1u);
}

TEST(TextFormat, CommentsAndBlankLinesAreIgnored) {
  const Csdfg g = parse_csdfg(
      "# a loop body\n"
      "\n"
      "graph g   # trailing comment\n"
      "node A 1  # the source\n"
      "node B 1\n"
      "edge A B 0 1\n");
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(TextFormat, RoundTripsEveryLibraryGraph) {
  for (const Csdfg& g : {paper_example6(), paper_example19(),
                         elliptic_filter(), lattice_filter(),
                         diffeq_solver()}) {
    const Csdfg back = parse_csdfg(serialize_csdfg(g));
    ASSERT_EQ(back.node_count(), g.node_count()) << g.name();
    ASSERT_EQ(back.edge_count(), g.edge_count()) << g.name();
    EXPECT_EQ(back.name(), g.name());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(back.node(v).name, g.node(v).name);
      EXPECT_EQ(back.node(v).time, g.node(v).time);
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(back.edge(e).from, g.edge(e).from);
      EXPECT_EQ(back.edge(e).to, g.edge(e).to);
      EXPECT_EQ(back.edge(e).delay, g.edge(e).delay);
      EXPECT_EQ(back.edge(e).volume, g.edge(e).volume);
    }
  }
}

TEST(TextFormat, ReportsLineNumbersOnErrors) {
  try {
    (void)parse_csdfg("node A 1\nnode B\n");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TextFormat, RejectsStructuralErrors) {
  EXPECT_THROW((void)parse_csdfg("frobnicate\n"), ParseError);
  EXPECT_THROW((void)parse_csdfg("node A 0\n"), ParseError);  // bad time
  EXPECT_THROW((void)parse_csdfg("node A 1\nedge A Z 0 1\n"), ParseError);
  EXPECT_THROW((void)parse_csdfg("node A 1\ngraph late\n"), ParseError);
  // Zero-delay cycle surfaces as GraphError after parsing.
  EXPECT_THROW((void)parse_csdfg("node A 1\nnode B 1\n"
                                 "edge A B 0 1\nedge B A 0 1\n"),
               GraphError);
}

TEST(TextFormat, ParsesEveryArchitectureKind) {
  EXPECT_EQ(parse_topology("linear_array 8").size(), 8u);
  EXPECT_EQ(parse_topology("ring 6").diameter(), 3u);
  EXPECT_EQ(parse_topology("ring 6 uni").diameter(), 5u);
  EXPECT_EQ(parse_topology("complete 5").diameter(), 1u);
  EXPECT_EQ(parse_topology("mesh 4 2").size(), 8u);
  EXPECT_EQ(parse_topology("torus 3 3").size(), 9u);
  EXPECT_EQ(parse_topology("hypercube 3").size(), 8u);
  EXPECT_EQ(parse_topology("star 5").size(), 5u);
  EXPECT_EQ(parse_topology("binary_tree 7").size(), 7u);
}

TEST(TextFormat, RejectsBadArchitectureSpecs) {
  EXPECT_THROW((void)parse_topology(""), ParseError);
  EXPECT_THROW((void)parse_topology("megastructure 8"), ParseError);
  EXPECT_THROW((void)parse_topology("mesh 4"), ParseError);
  EXPECT_THROW((void)parse_topology("mesh four two"), ParseError);
  // A parameter the topology does not take is refused, not ignored.
  for (const std::string spec :
       {"linear_array 4 junk", "mesh 2 2 2", "ring 8 bi", "ring 8 uni x"}) {
    try {
      (void)parse_topology(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unexpected parameter"),
                std::string::npos)
          << e.what();
    }
  }
}

// Every number is one whole token and a directive takes no extra tokens.
// Each line below was read by the istringstream reader (time 12, volume
// 2^64 - 1, volume 1, a dropped token); now each is refused.
TEST(TextFormat, RefusesPartialNumbersAndExtraTokens) {
  const std::pair<const char*, const char*> cases[] = {
      {"node a 12abc\n", "CCS-P001"},
      {"node a 1 extra\n", "CCS-P001"},
      {"node a 1\nnode b 1\nedge a b 1 -1\n", "CCS-G004"},
      {"node a 1\nnode b 1\nedge a b 0 99999999999999999999\n", "CCS-P001"},
      {"node a 1\nnode b 1\nedge a b 0 x\n", "CCS-P001"},
      {"node a 1\nnode b 1\nedge a b 0 1 1\n", "CCS-P001"},
      {"graph g extra\n", "CCS-P001"},
  };
  for (const auto& [text, code] : cases) {
    DiagnosticBag bag;
    (void)parse_csdfg_with_spans(text, "<t>", bag);
    bag.finalize();
    ASSERT_EQ(bag.diagnostics().size(), 1u) << text;
    EXPECT_EQ(bag.diagnostics()[0].code, code) << text;
    EXPECT_THROW((void)parse_csdfg(text), ParseError) << text;
  }
  // Zero and negative volumes keep their message; the cap has its own.
  for (const char* volume : {"0", "-1"}) {
    try {
      (void)parse_csdfg(std::string("node a 1\nnode b 1\nedge a b 0 ") +
                        volume + "\n");
      ADD_FAILURE() << volume;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.detail(), "edge a->b: data volume must be >= 1");
    }
  }
  try {
    (void)parse_csdfg("node a 1\nnode b 1\nedge a b 0 1000001\n");
    ADD_FAILURE();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.detail(), "edge a->b: data volume 1000001 exceeds the "
                          "1000000 cap");
  }
  EXPECT_EQ(parse_csdfg("node a 1\nnode b 1\nedge a b 0 1000000\n")
                .edge(0)
                .volume,
            kMaxEdgeVolume);
}

// --- Differential sweep against the istringstream reader --------------------

/// The text in four dresses: as is, with CRLF line ends, behind a UTF-8
/// BOM, and with a comment after every line.
std::vector<std::string> dressings(const std::string& text) {
  std::string crlf, commented;
  for (const char c : text) {
    if (c == '\n') {
      crlf += "\r\n";
      commented += "  # note\n";
    } else {
      crlf += c;
      commented += c;
    }
  }
  return {text, crlf, "\xEF\xBB\xBF" + text, "\xEF\xBB\xBF" + crlf,
          commented};
}

/// Both readers must give the same graph, spans and findings.
void expect_same_reading(const std::string& text, const std::string& label) {
  for (const std::string& dressed : dressings(text)) {
    DiagnosticBag mine, theirs;
    const ParsedCsdfg a = parse_csdfg_with_spans(dressed, label, mine);
    const ParsedCsdfg b =
        referee::parse_csdfg_with_spans(dressed, label, theirs);
    mine.finalize();
    theirs.finalize();
    ASSERT_EQ(serialize_csdfg(a.graph), serialize_csdfg(b.graph)) << label;
    EXPECT_EQ(a.spans.graph_line, b.spans.graph_line) << label;
    EXPECT_EQ(a.spans.node_lines, b.spans.node_lines) << label;
    EXPECT_EQ(a.spans.edge_lines, b.spans.edge_lines) << label;
    EXPECT_EQ(render_text(mine), render_text(theirs)) << label;
  }
}

TEST(GraphReaderReferee, LibraryBodiesReadAlike) {
  for (const auto& [name, g] : test_graphs::library_workloads())
    expect_same_reading(serialize_csdfg(g), name);
}

TEST(GraphReaderReferee, ExampleFilesReadAlike) {
  namespace fs = std::filesystem;
  std::size_t files = 0;
  for (const char* dir : {"", "/bad"}) {
    for (const auto& entry :
         fs::directory_iterator(std::string(CCS_EXAMPLES_DATA_DIR) + dir)) {
      if (entry.path().extension() != ".csdfg") continue;
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      expect_same_reading(text.str(), entry.path().filename().string());
      ++files;
    }
  }
  EXPECT_GE(files, 17u);  // 3 examples + the 14-file lint corpus
}

TEST(GraphReaderReferee, RandomGraphsReadAlike) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    RandomDfgConfig cfg;
    cfg.num_nodes = 2 + seed % 40;
    cfg.num_layers = 1 + seed % std::min<std::size_t>(cfg.num_nodes, 6);
    cfg.num_back_edges = seed % 7;
    cfg.max_time = 1 + static_cast<int>(seed % 9);
    cfg.max_volume = 1 + seed % 1000;
    cfg.max_delay = 1 + static_cast<int>(seed % 5);
    expect_same_reading(serialize_csdfg(random_csdfg(cfg, seed)),
                        "seed " + std::to_string(seed));
  }
}

TEST(GraphReaderReferee, GeneratedGraphsOf16To4096NodesReadAlike) {
  for (std::size_t nodes = 16; nodes <= 4096; nodes *= 4)
    expect_same_reading(serialize_csdfg(test_graphs::graph_of_size(nodes)),
                        std::to_string(nodes) + " nodes");
}

}  // namespace
}  // namespace ccs
