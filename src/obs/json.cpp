#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ccs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN/Inf
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void JsonWriter::sep(std::string_view key) {
  if (!first_) out_ << ',';
  first_ = false;
  out_ << '"' << json_escape(key) << "\":";
}

JsonWriter& JsonWriter::field(std::string_view key, long long v) {
  sep(key);
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, unsigned long long v) {
  sep(key);
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, double v) {
  sep(key);
  out_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool v) {
  sep(key);
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view v) {
  sep(key);
  out_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key,
                              const std::vector<std::size_t>& v) {
  sep(key);
  out_ << '[';
  for (std::size_t i = 0; i < v.size(); ++i) out_ << (i ? "," : "") << v[i];
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view key, std::string_view json) {
  sep(key);
  out_ << json;
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number() const { return std::strtod(text.c_str(), nullptr); }

namespace {

constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Value of one hex digit, or -1.
int hex_value(char c) {
  if (is_digit(c)) return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Recursive descent over one document.  No exceptions: the first error
/// sets a message and every caller unwinds on false.
class JsonReader {
public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    if (value(out, 0)) {
      skip_ws();
      if (pos_ == s_.size()) return true;
      (void)fail("trailing data after the JSON document");
    }
    error = error_;
    return false;
  }

private:
  bool fail(std::string_view what) {
    if (error_.empty())
      error_ = std::string(what) + " (byte " + std::to_string(pos_) + ")";
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  /// Consumes `c` after optional whitespace.
  bool eat(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("expected a value");
    pos_ += word.size();
    return true;
  }

  bool string_token(std::string& out) {
    if (!eat('"')) return fail("expected a string");
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      switch (const char esc = s_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const int h = pos_ < s_.size() ? hex_value(s_[pos_]) : -1;
            if (h < 0) return fail("expected four hex digits after \\u");
            code = code * 16 + h;
            ++pos_;
          }
          out.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
    return fail("unterminated string");
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && is_digit(s_[pos_])) ++pos_;
    return pos_ > start;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept as spelled.
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      pos_ = start;
      return fail("expected a value");
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail("expected a digit after '.'");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return fail("expected an exponent");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.text = s_.substr(start, pos_ - start);
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of document");
    switch (s_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string_token(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (eat('}')) return true;
    do {
      std::string key;
      if (!string_token(key)) return false;
      if (!eat(':')) return fail("expected ':' after an object key");
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}' in an object");
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (eat(']')) return true;
    do {
      JsonValue element;
      if (!value(element, depth + 1)) return false;
      out.array.push_back(std::move(element));
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']' in an array");
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  out = JsonValue{};
  return JsonReader(text).parse(out, error);
}

}  // namespace ccs
