// ccsched — minimal JSON writing and reading for the observability layer.
//
// The tracer and the metrics registry both serialize to JSON (JSON Lines for
// events, one document for a metrics snapshot), and `ccsched report`, the
// trace auditor and the serve loop read JSON back.  The library has no
// external dependencies, so this header provides the few pieces they need:
// string escaping, a tiny append-only object writer, and one reader
// (parse_json).  Output is deterministic (insertion order) and
// locale-independent.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccs {

/// Escapes `s` for placement inside a JSON string literal (quotes excluded).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Builds one flat JSON object field by field.
///
/// Usage:
///   JsonWriter w;
///   w.field("kind", "pass_start").field("pass", 3);
///   std::string line = w.close();   // {"kind":"pass_start","pass":3}
class JsonWriter {
public:
  JsonWriter() { out_ << '{'; }

  JsonWriter& field(std::string_view key, long long v);
  JsonWriter& field(std::string_view key, unsigned long long v);
  JsonWriter& field(std::string_view key, int v) {
    return field(key, static_cast<long long>(v));
  }
  JsonWriter& field(std::string_view key, std::size_t v) {
    return field(key, static_cast<unsigned long long>(v));
  }
  JsonWriter& field(std::string_view key, double v);
  JsonWriter& field(std::string_view key, bool v);
  JsonWriter& field(std::string_view key, std::string_view v);
  /// Guards against the const char* -> bool standard conversion outranking
  /// the string_view overload.
  JsonWriter& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  JsonWriter& field(std::string_view key, const std::vector<std::size_t>& v);
  /// Inserts `json` verbatim as the value (caller guarantees validity).
  JsonWriter& raw_field(std::string_view key, std::string_view json);

  /// Finishes the object and returns it.  The writer must not be reused.
  [[nodiscard]] std::string close() {
    out_ << '}';
    return out_.str();
  }

private:
  void sep(std::string_view key);

  std::ostringstream out_;
  bool first_ = true;
};

/// Renders a double as a valid JSON number (no locale, no trailing garbage).
[[nodiscard]] std::string json_number(double v);

/// One parsed JSON value.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// The unescaped characters of a string, or the literal spelling of a
  /// number, so 64-bit integers read back exactly.
  std::string text;
  std::vector<JsonValue> array;
  /// Members in document order; a repeated key is kept twice.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member named `key`, or nullptr.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// A number's value as a double.
  [[nodiscard]] double number() const;
};

/// Parses `text` as one JSON document.  Numbers must follow the JSON number
/// grammar; a \uXXXX escape decodes to its low byte (the writer only emits
/// \u00XX, for control bytes); raw control bytes inside strings are kept
/// as they are.  Nesting deeper than 64 levels is refused, so hostile input
/// cannot exhaust the stack.  Never throws: on malformed input it returns
/// false and names the problem and its byte offset in `error`.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string& error);

}  // namespace ccs
