#include "json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace perfbench {

const Json* Json::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

namespace {

class Parser {
public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool document(Json& out, std::string& error) {
    if (!value(out, 0)) {
      error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      error = "trailing bytes at " + std::to_string(pos_);
      return false;
    }
    return true;
  }

private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return string(out.text);
    }
    if (c == 't') {
      out.kind = Json::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = Json::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = Json::Kind::kNull;
      return literal("null");
    }
    return number(out);
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return fail("unexpected character");
    const auto [end, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, out.number);
    if (ec != std::errc{} || end != s_.data() + pos_)
      return fail("bad number");
    out.kind = Json::Kind::kNumber;
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("short \\u escape");
          std::uint32_t cp = 0;
          const auto [end, ec] = std::from_chars(
              s_.data() + pos_, s_.data() + pos_ + 4, cp, 16);
          if (ec != std::errc{} || end != s_.data() + pos_ + 4)
            return fail("bad \\u escape");
          pos_ += 4;
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool array(Json& out, int depth) {
    ++pos_;
    out.kind = Json::Kind::kArray;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json item;
      if (!value(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected , or ]");
    }
  }

  bool object(Json& out, int depth) {
    ++pos_;
    out.kind = Json::Kind::kObject;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected key");
      std::string k;
      if (!string(k)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected :");
      ++pos_;
      Json v;
      if (!value(v, depth + 1)) return false;
      out.fields[k] = std::move(v);
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected , or }");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "null";
}

}  // namespace

bool parse_json(std::string_view text, Json& out, std::string& error) {
  out = Json{};
  return Parser(text).document(out, error);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

JsonWriter::JsonWriter() : out_("{") {}

void JsonWriter::key(std::string_view k) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += quote(k);
  out_ += ':';
}

void JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  out_ += quote(value);
}

void JsonWriter::field(std::string_view k, double value) {
  key(k);
  out_ += format_number(value);
}

void JsonWriter::field(std::string_view k, long long value) {
  key(k);
  out_ += std::to_string(value);
}

void JsonWriter::field(std::string_view k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
}

void JsonWriter::raw(std::string_view k, std::string_view json) {
  key(k);
  out_ += json;
}

std::string JsonWriter::close() { return out_ + "}"; }

std::string number_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += format_number(values[i]);
  }
  return out + "]";
}

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += quote(values[i]);
  }
  return out + "]";
}

}  // namespace perfbench
