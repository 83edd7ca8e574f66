#include "obs/trace_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "obs/json.hpp"

namespace ccs {

const TraceField* TraceEvent::find(std::string_view key) const {
  for (const TraceField& f : fields)
    if (f.key == key) return &f;
  return nullptr;
}

bool TraceEvent::number(std::string_view key, long long& out) const {
  const TraceField* f = find(key);
  if (f == nullptr || f->kind != TraceField::Kind::kNumber) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(f->text.c_str(), &end, 10);
  if (errno != 0 || end == f->text.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

bool TraceEvent::string(std::string_view key, std::string& out) const {
  const TraceField* f = find(key);
  if (f == nullptr || f->kind != TraceField::Kind::kString) return false;
  out = f->text;
  return true;
}

namespace {

/// Moves the members of one parsed line into `fields`, enforcing the flat
/// trace grammar: every value is a string, number, boolean or array of
/// numbers.
bool to_trace_fields(JsonValue& line, std::vector<TraceField>& fields,
                     std::string& error) {
  if (line.kind != JsonValue::Kind::kObject) {
    error = "expected a JSON object";
    return false;
  }
  fields.reserve(line.object.size());
  for (auto& [key, value] : line.object) {
    TraceField& f = fields.emplace_back();
    f.key = std::move(key);
    switch (value.kind) {
      case JsonValue::Kind::kString:
        f.kind = TraceField::Kind::kString;
        f.text = std::move(value.text);
        break;
      case JsonValue::Kind::kNumber:
        f.kind = TraceField::Kind::kNumber;
        f.text = std::move(value.text);
        break;
      case JsonValue::Kind::kBool:
        f.kind = TraceField::Kind::kBool;
        f.text.append(value.boolean ? "true" : "false");
        break;
      case JsonValue::Kind::kArray:
        f.kind = TraceField::Kind::kArray;
        f.text.push_back('[');
        for (const JsonValue& element : value.array) {
          if (element.kind != JsonValue::Kind::kNumber) {
            error = "field '" + f.key + "': arrays may hold only numbers";
            return false;
          }
          if (f.text.size() > 1) f.text.push_back(',');
          f.text.append(element.text);
        }
        f.text.push_back(']');
        break;
      default:
        error = "field '" + f.key +
                "' must be a string, number, boolean or array of numbers";
        return false;
    }
  }
  return true;
}

}  // namespace

ParsedTrace parse_trace_jsonl(std::string_view text) {
  ParsedTrace out;
  std::size_t lineno = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    bool blank = true;
    for (const char c : line)
      blank &= std::isspace(static_cast<unsigned char>(c)) != 0;
    if (blank) continue;
    JsonValue parsed;
    TraceEvent e;
    e.line = lineno;
    std::string error;
    if (parse_json(line, parsed, error) &&
        to_trace_fields(parsed, e.fields, error)) {
      out.events.push_back(std::move(e));
    } else {
      out.issues.push_back(TraceParseIssue{lineno, std::move(error)});
    }
  }
  return out;
}

std::string canonical_trace_event(const TraceEvent& e) {
  std::string out;
  for (const TraceField& f : e.fields) {
    if (!out.empty()) out += ';';
    out += f.key;
    out += '=';
    out += f.kind == TraceField::Kind::kString ? json_escape(f.text) : f.text;
  }
  return out;
}

}  // namespace ccs
