// ccsched — structured diagnostics for static analysis.
//
// The lint subsystem (src/analysis/lint.hpp) and the lenient parser
// (io/text_format.hpp) both report findings as Diagnostic values: a stable
// rule code, a severity, a message, and a source span pointing at the
// offending line of the input file.  A DiagnosticBag collects, sorts, and
// dedupes them; renderers turn a finalized bag into human-readable text,
// JSON Lines, or a SARIF 2.1.0 document for CI annotation tooling.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ccs {

/// How bad a finding is.  kError findings describe inputs the schedulers
/// reject or mis-handle; kWarning findings are almost certainly mistakes;
/// kNote findings are advisory.
enum class Severity {
  kNote,
  kWarning,
  kError,
};

/// Lower-case severity name ("note", "warning", "error"); also the SARIF
/// result level.
[[nodiscard]] std::string_view severity_name(Severity s);

/// A location inside a source artifact.  `line` is 1-based; 0 means the
/// finding applies to the artifact as a whole.
struct SourceSpan {
  std::string file = "<input>";
  std::size_t line = 0;
};

/// Maps the elements of a parsed CSDFG back to the lines that declared
/// them, so graph-level lint passes can point at source.  Produced by
/// parse_csdfg_with_spans (io/text_format.hpp).
struct SourceMap {
  std::string file = "<input>";
  std::size_t graph_line = 0;            ///< Line of the graph directive (0 if none).
  std::vector<std::size_t> node_lines;   ///< node_lines[v] declared node v.
  std::vector<std::size_t> edge_lines;   ///< edge_lines[e] declared edge e.

  /// Span of node `v` (whole-file span when out of range).
  [[nodiscard]] SourceSpan node_span(std::size_t v) const;
  /// Span of edge `e` (whole-file span when out of range).
  [[nodiscard]] SourceSpan edge_span(std::size_t e) const;
  /// Span of the artifact as a whole.
  [[nodiscard]] SourceSpan file_span() const { return {file, 0}; }
};

/// One finding.
struct Diagnostic {
  std::string code;      ///< Stable rule code ("CCS-G001", ...).
  Severity severity = Severity::kWarning;
  std::string message;   ///< Human-readable, self-contained description.
  SourceSpan span;       ///< Where the finding anchors.
};

/// Collects diagnostics, then sorts and dedupes them for rendering.
///
/// Passes append in discovery order; finalize() establishes the report
/// order (file, line, code, message) and drops exact duplicates.  The
/// exit-code helpers answer the only two questions callers ask: "are there
/// errors?" and "are there errors once warnings are promoted (--werror)?".
class DiagnosticBag {
public:
  /// Appends a finding whose severity comes from the rule catalogue
  /// (rules.hpp).  Unknown codes are a programming error (contract check).
  void add(std::string_view code, SourceSpan span, std::string message);

  /// Appends a fully specified finding (for engine reuse outside the
  /// catalogue, e.g. tests of the renderers).
  void add(Diagnostic diag);

  /// Sorts by (file, line, code, message) and removes exact duplicates.
  /// Renderers expect a finalized bag; calling finalize() twice is fine.
  void finalize();

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diags_;
  }
  [[nodiscard]] bool empty() const noexcept { return diags_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return diags_.size(); }

  /// Number of findings at exactly severity `s`.
  [[nodiscard]] std::size_t count(Severity s) const;

  /// True when the bag demands a non-zero exit: any error, or any warning
  /// when `werror` promotes warnings to errors.  Notes never fail.
  [[nodiscard]] bool fails(bool werror) const;

private:
  std::vector<Diagnostic> diags_;
};

/// The strict readers' acceptance test: finalizes `bag`, then throws
/// ParseError with the line and message of its first error finding (no
/// line for a whole-artifact finding).  Returns when there is no error.
void throw_first_error(DiagnosticBag& bag);

/// Renders one line per finding: "file:line: severity: message [code]"
/// (the line number is omitted for whole-file findings).  Ends with a
/// summary line when the bag is non-empty; empty bags render to "".
[[nodiscard]] std::string render_text(const DiagnosticBag& bag);

/// Renders one JSON object per finding, one per line:
/// {"code":...,"severity":...,"message":...,"file":...,"line":N}.
[[nodiscard]] std::string render_jsonl(const DiagnosticBag& bag);

/// Renders a SARIF 2.1.0 document: a single run whose tool.driver lists
/// the full rule catalogue (rules.hpp) and whose results reference it by
/// ruleId/ruleIndex with physicalLocation regions.  Deterministic output.
/// `driver` names the producing tool ("ccsched-lint", "ccsched-certify").
[[nodiscard]] std::string render_sarif(const DiagnosticBag& bag,
                                       std::string_view driver =
                                           "ccsched-lint");

}  // namespace ccs
