// ccsched — the serve-loop wire format (docs/SERVE.md).
//
// `ccsched serve` speaks JSON Lines: one flat JSON object per request
// line, one flat JSON object per response line.  The request grammar is
// deliberately the tracer's flat-object grammar (obs/trace_reader.hpp) —
// string / number / boolean values plus number arrays, nothing nested —
// so the service reuses the trace reader the certifier already trusts for
// hostile trace streams: a malformed line is an error *value*, never an
// exception, and can therefore never take the serve loop down.
//
// Decoding is fault-containment layer one (the PR-4 hardened-parser
// pattern): an oversized line, truncated JSON, embedded NULs, an unknown
// op, an absurd deadline — each produces a ServeParse whose code/message
// pair the service turns into a structured CCS-E001 error response.  The
// graph text itself stays an opaque string here; the strict CSDFG parse
// happens under the solver's own error contract.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ccs {

/// One decoded request line.  Defaults mirror the CLI's: schedule mode,
/// relaxation remapping, certification on.
struct ServeRequest {
  /// solve | shutdown | stats | sleep.  "solve" answers with a schedule;
  /// "shutdown" stops admission and drains; "stats" reports service
  /// counters; "sleep" (diagnostics/testing) occupies a worker for
  /// sleep_ms, capped at 1000.
  std::string op = "solve";
  /// Echoed verbatim in the response; "line-<n>" when absent.
  std::string id;
  /// CSDFG text (docs/FORMATS.md), embedded as one JSON string.
  std::string graph;
  /// Architecture spec in the CLI grammar ("mesh 2 2", ...).
  std::string arch;
  /// startup | schedule | modulo | portfolio.
  std::string mode = "schedule";
  /// relax | strict (schedule/portfolio modes).
  std::string policy = "relax";
  /// Wall-clock completion budget measured from admission; 0 = none.
  /// Non-positive values are decoded (the service rejects them with
  /// CCS-E003 — an already-expired deadline is a semantic refusal, not a
  /// syntax error).
  long long deadline_ms = 0;
  bool has_deadline = false;
  int passes = 0;      ///< 0 = driver default.
  int jobs = 1;        ///< portfolio workers.
  int attempts = 0;    ///< 0 = portfolio default roster.
  unsigned long long seed = 0;
  bool pipelined = false;
  bool certify = true;
  /// When true the response carries the serialized schedule and retimed
  /// graph; off by default to keep response lines small under load.
  bool emit = false;
  std::vector<int> speeds;  ///< per-PE speed factors; empty = uniform.
  long long sleep_ms = 0;
};

/// Decode outcome: ok, or a diagnostic (code, message) for the structured
/// error response.  `blank` marks an empty/whitespace-only line, which
/// gets no response at all.
struct ServeParse {
  bool ok = false;
  bool blank = false;
  ServeRequest request;
  std::string code;     ///< CCS diagnostic code, e.g. "CCS-E001".
  std::string message;  ///< Human detail for the error response.
};

/// Largest deadline the wire format accepts (ms); anything above is an
/// absurd value and decodes to CCS-E001 rather than silently saturating.
inline constexpr long long kMaxServeDeadlineMs = 1'000'000'000;

/// Decodes one request line.  Never throws.  `max_bytes` caps the line
/// (oversized lines are refused before parsing, so a 10MB line costs one
/// length check, not a scan).
[[nodiscard]] ServeParse parse_serve_request(std::string_view line,
                                             std::size_t max_bytes);

/// Everything a response line can carry; empty strings omit the field.
/// `status` is the protocol outcome token (docs/SERVE.md):
///   ok | uncertified | infeasible | error | rejected | overloaded
/// plus the op echoes "shutdown" / "stats" / "sleep" use status "ok".
struct ServeResponseFields {
  std::string id;
  unsigned long long seq = 0;
  std::string status;
  std::string op;        ///< echoed for non-solve ops; "" = solve.
  std::string code;      ///< primary CCS code for refusals.
  std::string message;   ///< short refusal detail.
  std::string degraded;  ///< ladder rung; "" = full answer.
  bool cache_hit = false;
  bool has_result = false;  ///< emit the result block below.
  bool certified = false;
  int best_length = 0;
  int startup_length = 0;
  int lower_bound = 0;
  int gap = -1;
  bool optimal = false;
  std::string stop_reason;
  std::string fingerprint;
  std::string schedule_text;  ///< serialized schedule (emit=true only).
  std::string graph_text;     ///< serialized retimed graph (emit=true only).
  /// (code, message) pairs rendered as a "diagnostics" array.
  std::vector<std::pair<std::string, std::string>> diagnostics;
  /// Extra "k":v counters for stats/summary responses, rendered in order.
  std::vector<std::pair<std::string, long long>> counters;
};

/// Renders one response line (no trailing newline).  Deterministic:
/// insertion-ordered fields, locale-independent numbers.
[[nodiscard]] std::string render_serve_response(
    const ServeResponseFields& f);

}  // namespace ccs
