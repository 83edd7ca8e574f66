// ccsched — the one line reader behind every text format.
//
// All of the repo's text formats (graph, schedule, SDF, fault spec) are
// line-oriented and share this lexical layer, so a file means the same
// thing to every reader:
//
//   * a UTF-8 byte-order mark before the first line is dropped, and a line
//     may end in CRLF — such files read exactly like plain LF ones;
//   * `#` starts a comment that runs to the end of its line;
//   * tokens are separated by blanks (space, tab, CR, VT, FF);
//   * a line without tokens is skipped.
//
// The readers add two rules of their own on top: every number is one
// whole token read with parse_whole (util/numbers.hpp), so "12abc" is a
// syntax error rather than 12, and a line with more tokens than its
// directive takes is refused with the format's syntax code.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ccs {

/// The tokens of one line; tokens[0] is its directive.  The views point
/// into the text being read.
using Tokens = std::span<const std::string_view>;

/// Splits `text` at blanks (space, tab, LF, VT, FF, CR) into `out`,
/// which it clears first.
inline void split_tokens(std::string_view text,
                         std::vector<std::string_view>& out) {
  const auto blank = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  out.clear();
  const char* at = text.data();
  const char* const end = at + text.size();
  for (;;) {
    while (at != end && blank(*at)) ++at;
    if (at == end) return;
    const char* const start = at;
    while (at != end && !blank(*at)) ++at;
    out.emplace_back(start, static_cast<std::size_t>(at - start));
  }
}

/// Calls `on_line(number, tokens)` for every line of `text` that holds a
/// token once the BOM and its comment are gone; `number` is 1-based.
template <class OnLine>
void for_each_line(std::string_view text, OnLine&& on_line) {
  constexpr std::string_view kBom = "\xEF\xBB\xBF";
  if (text.starts_with(kBom)) text.remove_prefix(kBom.size());
  std::vector<std::string_view> tokens;
  for (std::size_t number = 1; !text.empty(); ++number) {
    const std::size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    split_tokens(line.substr(0, line.find('#')), tokens);
    if (!tokens.empty()) on_line(number, Tokens(tokens));
  }
}

/// The names a reader has seen declared, each with the id of its first
/// declaration and how often it was declared.  Keys are views, so the
/// declaring text must outlive the index.
class NameIndex {
public:
  struct Entry {
    std::size_t id = 0;     ///< Id of the first declaration.
    std::size_t count = 0;  ///< Declarations so far.
  };

  /// Records a declaration of `name` as `id`.
  void declare(std::string_view name, std::size_t id) {
    ++entries_.try_emplace(name, Entry{id, 0}).first->second.count;
  }

  /// The entry of `name`, or nullptr when it was never declared.
  [[nodiscard]] const Entry* find(std::string_view name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }

private:
  std::unordered_map<std::string_view, Entry> entries_;
};

}  // namespace ccs
