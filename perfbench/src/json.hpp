// perfbench — a small JSON reader and writer of the benchmark's own.
//
// The benchmark reads serve responses with this parser rather than the
// service's codec, so a codec defect cannot hide behind itself, and
// writes its raw result document for perfbench/run.py with the writer.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A parsed JSON value.  Objects keep their keys sorted; duplicate keys
/// keep the last value.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json, std::less<>> fields;

  /// The member `key`, or nullptr when absent or this is not an object.
  [[nodiscard]] const Json* get(std::string_view key) const;
};

/// Parses one JSON document.  Returns false with a message on malformed
/// input or trailing garbage.
bool parse_json(std::string_view text, Json& out, std::string& error);

/// `s` as a quoted JSON string literal.
[[nodiscard]] std::string quote(std::string_view s);

/// Writes one flat-or-nested JSON object incrementally:
///   JsonWriter w; w.field("a", 1); w.raw("b", "[1,2]"); w.close();
class JsonWriter {
public:
  JsonWriter();
  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, long long value);
  void field(std::string_view key, int value) {
    field(key, static_cast<long long>(value));
  }
  void field(std::string_view key, bool value);
  /// Inserts `json` (already valid JSON) as the value of `key`.
  void raw(std::string_view key, std::string_view json);
  /// The finished object text.
  [[nodiscard]] std::string close();

private:
  void key(std::string_view k);
  std::string out_;
  bool first_ = true;
};

/// `values` as a JSON array of numbers.
[[nodiscard]] std::string number_array(const std::vector<double>& values);

/// `values` as a JSON array of strings.
[[nodiscard]] std::string string_array(const std::vector<std::string>& values);

}  // namespace perfbench
