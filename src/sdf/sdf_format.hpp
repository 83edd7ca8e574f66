// ccsched — textual interchange for SDF graphs.
//
//   sdf <name>
//   actor <name> <time>
//   channel <from> <to> <produce> <consume> [initial_tokens [token_volume]]
//
// Same conventions as the other formats (util/lines.hpp): `#` comments,
// BOM/CRLF tolerance, whole-token numbers, line-numbered errors.  `ccsched
// expand` consumes this format and emits the expanded single-rate CSDFG in
// the graph format.
#pragma once

#include <string>
#include <string_view>

#include "sdf/sdf.hpp"

namespace ccs {

/// Parses the SDF text format.  Throws ParseError with the line number of
/// the first malformed line, including the SdfGraph's own refusals (bad
/// times, rates, token counts or volumes).
[[nodiscard]] SdfGraph parse_sdf(std::string_view text);

/// Serializes; parse_sdf round-trips it.
[[nodiscard]] std::string serialize_sdf(const SdfGraph& sdf);

}  // namespace ccs
