// ccsched — reading trace streams back in.
//
// The tracer (obs/trace.hpp) is write-only by design: the scheduler emits
// JSON Lines and never looks back.  The certifier, however, must *audit*
// a recorded stream — check sequence numbers, re-derive pass summaries,
// and diff a replayed run against the file — so this header provides the
// inverse: each line is read with parse_json (obs/json.hpp) and held to
// the flat grammar the tracer writes.
//
// Scope is deliberately narrow.  Trace lines are flat objects whose values
// are strings, numbers, booleans, or arrays of numbers (the `rotated`
// field); nothing nests.  The reader accepts exactly that grammar, records
// anything else as a TraceParseIssue with its line number, and keeps
// going.  It lives in src/obs so the layering stays acyclic: analysis
// depends on obs, never the reverse — the reader reports plain issue
// structs and leaves diagnostic codes to the certifier.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ccs {

/// One key/value pair of a trace event, in stream order.
struct TraceField {
  enum class Kind { kString, kNumber, kBool, kArray };
  std::string key;
  Kind kind = Kind::kString;
  /// Canonical text of the value: the unescaped characters for strings,
  /// the literal spelling for numbers and booleans, and "[a,b,...]" with
  /// no spaces for arrays.  Two equal values always canonicalize equally.
  std::string text;
};

/// One parsed trace line.
struct TraceEvent {
  std::size_t line = 0;  ///< 1-based line in the stream.
  std::vector<TraceField> fields;

  /// First field named `key`, or nullptr.
  [[nodiscard]] const TraceField* find(std::string_view key) const;
  /// Reads field `key` as a number into `out`; false when absent or not
  /// an integral number.
  [[nodiscard]] bool number(std::string_view key, long long& out) const;
  /// Reads field `key` as a string into `out`; false when absent or not a
  /// string.
  [[nodiscard]] bool string(std::string_view key, std::string& out) const;
};

/// A line the reader could not parse as a flat trace object.
struct TraceParseIssue {
  std::size_t line = 0;
  std::string message;
};

/// A fully scanned stream: the events that parsed, plus every issue.
struct ParsedTrace {
  std::vector<TraceEvent> events;
  std::vector<TraceParseIssue> issues;
};

/// Parses a JSONL trace stream.  Blank lines are skipped; each remaining
/// line must be one flat JSON object.  Never throws — malformed lines
/// land in `issues` and the scan continues.
[[nodiscard]] ParsedTrace parse_trace_jsonl(std::string_view text);

/// Canonical one-line rendering of an event — "key=value;key=value;..."
/// in stream order, with string values escaped.  Two events compare equal
/// iff their canonical forms do; the certifier diffs replayed streams on
/// this form so the report quotes something readable.
[[nodiscard]] std::string canonical_trace_event(const TraceEvent& e);

}  // namespace ccs
