// ccsched — whole-token number reading shared by every reader.
//
// A number in a command line, an architecture spec or a fault spec is one
// whole token: "2abc" is an error, never the number 2 with the rest
// dropped.  std::stoll/std::stod stop at the first character they cannot
// use, so every reader goes through parse_whole instead.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace ccs {

/// Reads all of `text` as one number that fits `out` (an integer type or
/// double): "3abc", " 3", "+3", "1.9" into an integer and "-1" into an
/// unsigned `out` are refused.  On refusal `out` holds no useful value.
template <class Number>
bool parse_whole(std::string_view text, Number& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace ccs
