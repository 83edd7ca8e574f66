// ccsched — textual interchange formats.
//
// A small line-oriented format so graphs and architectures can live in
// files, be diffed, and round-trip through the CLI example:
//
//   # comment
//   graph my_loop
//   node A 1
//   node B 2
//   edge A B 0 1          # from to delay volume
//
// The lexical rules (comments, blanks, BOM/CRLF, whole-token numbers) are
// util/lines.hpp's, shared with every other format.
//
// Architectures are one-liners:
//
//   linear_array 8 | ring 8 [uni] | complete 8 | mesh 4 2 | torus 4 4 |
//   hypercube 3 | star 8 | binary_tree 7
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "analysis/diagnostics.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"

namespace ccs {

/// Result of a lenient parse: as much graph as could be recovered, plus
/// the source map linking every node and edge back to its declaring line.
struct ParsedCsdfg {
  Csdfg graph;
  SourceMap spans;
};

/// Parses the CSDFG text format *leniently*: malformed or structurally
/// invalid constructs are reported into `bag` with stable codes (CCS-P###
/// syntax, CCS-G002..G005 domain violations) and source spans, then either
/// skipped (bad lines, unresolvable edges, zero-delay self-loops) or
/// clamped to the nearest legal value (times to 1, volumes into
/// [1, kMaxEdgeVolume], delays to 0) so downstream lint passes still see a
/// maximal graph.  Never throws on bad input; legality (zero-delay cycles)
/// is NOT checked — that is the CCS-G001 lint pass.  `filename` labels the
/// spans.
[[nodiscard]] ParsedCsdfg parse_csdfg_with_spans(std::string_view text,
                                                 const std::string& filename,
                                                 DiagnosticBag& bag);

/// The strict parser's acceptance test on a lenient parse:
/// throw_first_error(bag), then GraphError when the graph has a zero-delay
/// cycle.  Lets a caller that also lints the graph parse it once.
void require_strict_parse(const ParsedCsdfg& parsed, DiagnosticBag& bag);

/// Parses the CSDFG text format strictly: the lenient parse plus
/// require_strict_parse.
[[nodiscard]] Csdfg parse_csdfg(std::string_view text);

/// Reads all of `in`, then parses it as parse_csdfg(text) does.
[[nodiscard]] Csdfg parse_csdfg(std::istream& in);

/// Serializes `g` to the text format; parse_csdfg round-trips it.
[[nodiscard]] std::string serialize_csdfg(const Csdfg& g);

/// Parses an architecture one-liner such as "mesh 4 2" or "ring 8 uni".
/// Throws ParseError on unknown topology names, bad or missing parameters
/// and parameters the topology does not take.
[[nodiscard]] Topology parse_topology(const std::string& spec);

}  // namespace ccs
