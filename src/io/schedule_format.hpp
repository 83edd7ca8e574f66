// ccsched — textual interchange for schedule tables.
//
// Schedules are artifacts worth persisting: a compacted table is the
// product of an expensive search, and downstream code generators (see
// core/prologue.hpp) consume it.  The format is line-oriented like the
// graph format, with the lexical rules of util/lines.hpp:
//
//   schedule <length> <num_pes> [pipelined]   # first, exactly once
//   speeds <s1> ... <sP>            # optional, heterogeneous machines;
//                                   # at most once, before every place
//   place <task-name> <pe (1-based)> <cb>
//   retime <task-name> <r>          # optional provenance: accumulated
//                                   # retiming from the original graph
//
// Task names are resolved against the graph the schedule belongs to, so a
// file is only meaningful alongside its (possibly retimed) CSDFG — the
// serializer for graphs lives in io/text_format.hpp.  `retime` lines
// record the accumulated retiming the rotation phase applied; the strict
// reader validates and discards them, the certifier audits them.
//
// There is one reader.  parse_raw_schedule reads the text and keeps every
// directive as written; resolve_schedule (analysis/certify.hpp) resolves
// task names and processors against the graph.  The certifier works from
// those two, because it must inspect schedules the strict reader refuses;
// parse_schedule adds the table checks and throws.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/csdfg.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"

namespace ccs {

/// Serializes `table` (placements in ascending task id).  When `retiming`
/// is non-null, appends one `retime` line per task with a non-zero r(v) —
/// the provenance the certifier audits (CCS-S008).  parse_schedule
/// round-trips the result against the same graph.
[[nodiscard]] std::string serialize_schedule(const Csdfg& g,
                                             const ScheduleTable& table,
                                             const Retiming* retiming =
                                                 nullptr);

/// Parses the schedule format against `g` strictly: parse_raw_schedule,
/// resolve_schedule, then the table checks (cb >= 1, no slot conflict, a
/// declared length no shorter than the occupied span).  Throws ParseError
/// carrying the first error's line (throw_first_error).
[[nodiscard]] ScheduleTable parse_schedule(const Csdfg& g,
                                           std::string_view text);

// --- Raw (lenient) representation -------------------------------------------
//
// The raw reader keeps each directive as written, with its source line,
// and reports only *syntax* problems; resolution reports the names and
// processors that do not resolve.  Both report CCS-S001 findings and drop
// the offending line, so a caller sees every problem of a file at once.

/// One `place` directive as written.
struct RawPlacement {
  std::string task;     ///< Task name, unresolved.
  std::size_t pe = 1;   ///< 1-based processor as in the file.
  int cb = 0;           ///< First control step.
  std::size_t line = 0; ///< Declaring line.
};

/// One `retime` directive as written.
struct RawRetime {
  std::string task;
  long long r = 0;
  std::size_t line = 0;
};

/// A schedule file, structurally parsed but semantically unchecked.
struct RawSchedule {
  std::string file = "<schedule>";
  bool has_directive = false;     ///< A `schedule` line was seen.
  int length = 0;
  std::size_t num_pes = 1;
  bool pipelined = false;
  std::vector<int> speeds;        ///< Empty = homogeneous.
  std::vector<RawPlacement> places;
  std::vector<RawRetime> retimes;
  std::size_t schedule_line = 0;  ///< Line of the `schedule` directive.
  std::size_t speeds_line = 0;    ///< Line of the `speeds` directive (0 if none).
};

/// Parses the schedule format leniently: every directive that scans is
/// recorded verbatim; lines that do not scan, and structural misuses (a
/// duplicate or missing `schedule` directive, directives before it, a
/// second `speeds` or one after a `place`), are reported into `bag` as
/// CCS-S001 diagnostics with their source line, then skipped.  Never
/// throws.  `filename` labels the spans.
[[nodiscard]] RawSchedule parse_raw_schedule(std::string_view text,
                                             const std::string& filename,
                                             DiagnosticBag& bag);

}  // namespace ccs
