#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "analysis/rules.hpp"
#include "obs/json.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ccs {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  CCS_ASSERT(false);
  return "error";
}

SourceSpan SourceMap::node_span(std::size_t v) const {
  if (v < node_lines.size()) return {file, node_lines[v]};
  return file_span();
}

SourceSpan SourceMap::edge_span(std::size_t e) const {
  if (e < edge_lines.size()) return {file, edge_lines[e]};
  return file_span();
}

void DiagnosticBag::add(std::string_view code, SourceSpan span,
                        std::string message) {
  const LintRule* rule = find_rule(code);
  CCS_EXPECTS(rule != nullptr);
  diags_.push_back(Diagnostic{std::string(code), rule->severity,
                              std::move(message), std::move(span)});
}

void DiagnosticBag::add(Diagnostic diag) { diags_.push_back(std::move(diag)); }

void DiagnosticBag::finalize() {
  const auto key = [](const Diagnostic& d) {
    return std::tie(d.span.file, d.span.line, d.code, d.message);
  };
  std::stable_sort(diags_.begin(), diags_.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     return key(a) < key(b);
                   });
  diags_.erase(std::unique(diags_.begin(), diags_.end(),
                           [&](const Diagnostic& a, const Diagnostic& b) {
                             return key(a) == key(b);
                           }),
               diags_.end());
}

std::size_t DiagnosticBag::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_)
    if (d.severity == s) ++n;
  return n;
}

bool DiagnosticBag::fails(bool werror) const {
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) return true;
    if (werror && d.severity == Severity::kWarning) return true;
  }
  return false;
}

void throw_first_error(DiagnosticBag& bag) {
  bag.finalize();
  for (const Diagnostic& d : bag.diagnostics()) {
    if (d.severity != Severity::kError) continue;
    if (d.span.line == 0) throw ParseError(d.message);
    throw ParseError(d.span.line, d.message);
  }
}

std::string render_text(const DiagnosticBag& bag) {
  std::ostringstream os;
  for (const Diagnostic& d : bag.diagnostics()) {
    os << d.span.file;
    if (d.span.line > 0) os << ':' << d.span.line;
    os << ": " << severity_name(d.severity) << ": " << d.message << " ["
       << d.code << "]\n";
  }
  if (!bag.empty()) {
    os << bag.count(Severity::kError) << " error(s), "
       << bag.count(Severity::kWarning) << " warning(s), "
       << bag.count(Severity::kNote) << " note(s)\n";
  }
  return os.str();
}

std::string render_jsonl(const DiagnosticBag& bag) {
  std::ostringstream os;
  for (const Diagnostic& d : bag.diagnostics()) {
    JsonWriter w;
    w.field("code", d.code)
        .field("severity", severity_name(d.severity))
        .field("message", d.message)
        .field("file", d.span.file)
        .field("line", d.span.line);
    os << w.close() << '\n';
  }
  return os.str();
}

namespace {

/// {"text": "<escaped>"} — the SARIF multiformatMessageString shape.
std::string sarif_text(std::string_view text) {
  return "{\"text\":\"" + json_escape(text) + "\"}";
}

std::string sarif_rules_array() {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const LintRule& r : all_rules()) {
    if (!first) os << ',';
    first = false;
    JsonWriter w;
    w.field("id", r.code)
        .field("name", r.name)
        .raw_field("shortDescription", sarif_text(r.summary))
        .raw_field("help", sarif_text(r.remedy))
        .raw_field("defaultConfiguration",
                   "{\"level\":\"" + std::string(severity_name(r.severity)) +
                       "\"}");
    os << w.close();
  }
  os << ']';
  return os.str();
}

std::string sarif_location(const SourceSpan& span) {
  std::ostringstream os;
  os << "[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\""
     << json_escape(span.file) << "\"}";
  if (span.line > 0) os << ",\"region\":{\"startLine\":" << span.line << '}';
  os << "}}]";
  return os.str();
}

std::string sarif_results_array(const DiagnosticBag& bag) {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const Diagnostic& d : bag.diagnostics()) {
    if (!first) os << ',';
    first = false;
    JsonWriter w;
    w.field("ruleId", d.code);
    const std::size_t index = rule_index(d.code);
    if (index < all_rules().size()) w.field("ruleIndex", index);
    w.field("level", severity_name(d.severity))
        .raw_field("message", sarif_text(d.message))
        .raw_field("locations", sarif_location(d.span));
    os << w.close();
  }
  os << ']';
  return os.str();
}

}  // namespace

std::string render_sarif(const DiagnosticBag& bag, std::string_view name) {
  JsonWriter driver;
  driver.field("name", name)
      .field("version", "1.0.0")
      .field("informationUri",
             "https://github.com/ccsched/ccsched/blob/main/docs/"
             "DIAGNOSTICS.md")
      .raw_field("rules", sarif_rules_array());

  JsonWriter run;
  run.raw_field("tool", "{\"driver\":" + driver.close() + "}")
      .raw_field("results", sarif_results_array(bag));

  JsonWriter doc;
  doc.field("version", "2.1.0")
      .field("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
      .raw_field("runs", std::string("[").append(run.close()).append("]"));
  return doc.close() + "\n";
}

}  // namespace ccs
