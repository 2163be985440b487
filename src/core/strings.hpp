// Small string utilities shared across protocol parsers and report printers.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cen {

// Case folding is ASCII only: A-Z and a-z map onto each other and every
// other byte, 0x80-0xff included, is left alone, whatever the locale.

/// ASCII lowercase copy.
std::string ascii_lower(std::string_view s);
/// ASCII uppercase copy.
std::string ascii_upper(std::string_view s);
/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);
/// Case-insensitive ASCII substring test (an empty needle is always found).
bool icontains(std::string_view haystack, std::string_view needle);
/// Trim ASCII whitespace (space, \t, \r, \n) from both ends.
std::string_view trim(std::string_view s);
/// Split on a delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);
/// Split on a multi-character separator; keeps empty fields.
std::vector<std::string> split(std::string_view s, std::string_view sep);
/// True if `s` starts with / ends with the given prefix/suffix.
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
/// Join pieces with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);
/// Reverse a string ("abc" -> "cba").
std::string reversed(std::string_view s);
/// The whole content of the file at `path`; nullopt when it cannot be
/// opened.
std::optional<std::string> read_file(const std::string& path);
/// printf-style float with fixed precision, e.g. fmt_pct(0.4213, 2) == "42.13".
std::string fmt_fixed(double v, int precision);

/// The name of enum value `e` in `names`, the enum's name array indexed
/// by value; "?" for a value past its end.
template <typename E>
constexpr std::string_view enum_name(std::span<const std::string_view> names, E e) {
  const auto i = static_cast<std::size_t>(e);
  return i < names.size() ? names[i] : "?";
}

}  // namespace cen
