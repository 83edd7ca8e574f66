// ccsched — the istringstream graph reader, kept as the test-only referee.
//
// This is the reader ccsched parsed the CSDFG text format with before
// io/text_format.cpp moved onto the shared line tokenizer
// (util/lines.hpp).  It builds one std::istringstream per line and reads
// numbers with operator>>, so it accepts some inputs the production reader
// refuses ("node a 12abc" as time 12, "edge a b 0 -1" as volume 2^64 - 1,
// trailing tokens).  The differential tests (tests/test_text_format.cpp)
// hold the production reader to exactly its graphs, spans and findings on
// valid inputs, and to refusing everything it refuses; nothing outside
// tests/ links this file.
#pragma once

#include <string>

#include "analysis/diagnostics.hpp"
#include "io/text_format.hpp"

namespace ccs::referee {

/// The lenient parse, as io/text_format.hpp's parse_csdfg_with_spans.
[[nodiscard]] ParsedCsdfg parse_csdfg_with_spans(const std::string& text,
                                                 const std::string& filename,
                                                 DiagnosticBag& bag);

}  // namespace ccs::referee
