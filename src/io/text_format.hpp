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
// Architectures are one-liners:
//
//   linear_array 8 | ring 8 [uni] | complete 8 | mesh 4 2 | torus 4 4 |
//   hypercube 3 | star 8 | binary_tree 7
#pragma once

#include <iosfwd>
#include <string>

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
/// clamped to the nearest legal value (times to 1, volumes to 1, delays
/// to 0) so downstream lint passes still see a maximal graph.  Never
/// throws on bad input; legality (zero-delay cycles) is NOT checked —
/// that is the CCS-G001 lint pass.  `filename` labels the spans.
[[nodiscard]] ParsedCsdfg parse_csdfg_with_spans(std::istream& in,
                                                 const std::string& filename,
                                                 DiagnosticBag& bag);

/// Lenient parse from a string.
[[nodiscard]] ParsedCsdfg parse_csdfg_with_spans(const std::string& text,
                                                 const std::string& filename,
                                                 DiagnosticBag& bag);

/// The strict parser's acceptance test on a lenient parse: finalizes
/// `bag`, then throws ParseError carrying the (line, message) pair of its
/// first error, or GraphError when the graph has a zero-delay cycle.  Lets
/// a caller that also lints the graph parse it once.
void require_strict_parse(const ParsedCsdfg& parsed, DiagnosticBag& bag);

/// Parses the CSDFG text format strictly: the lenient parse plus
/// require_strict_parse.
[[nodiscard]] Csdfg parse_csdfg(std::istream& in);

/// Parses from a string (convenience for tests and embedded specs).
[[nodiscard]] Csdfg parse_csdfg(const std::string& text);

/// Serializes `g` to the text format; parse_csdfg round-trips it.
[[nodiscard]] std::string serialize_csdfg(const Csdfg& g);

/// Parses an architecture one-liner such as "mesh 4 2" or "ring 8 uni".
/// Throws ParseError on unknown topology names or bad parameters.
[[nodiscard]] Topology parse_topology(const std::string& spec);

}  // namespace ccs
