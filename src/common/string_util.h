// Small string helpers shared across modules.

#ifndef CONTJOIN_COMMON_STRING_UTIL_H_
#define CONTJOIN_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace contjoin {

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// ASCII lowercase copy.
std::string AsciiToLower(std::string_view s);

/// ASCII uppercase copy.
std::string AsciiToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Canonical double formatting: shortest representation that round-trips.
/// Integral doubles print without a fractional part ("2", not "2.0"), so a
/// double that equals an integer hashes to the same value-level identifier
/// as that integer (paper: numeric values are treated as strings).
std::string CanonicalDouble(double v);

/// Buffer size CanonicalDoubleChars needs.
inline constexpr size_t kCanonicalDoubleChars = 32;

/// CanonicalDouble without allocating: the characters are written into
/// `buf` (kCanonicalDoubleChars bytes) or taken from a literal.
std::string_view CanonicalDoubleChars(double v, char* buf);

}  // namespace contjoin

#endif  // CONTJOIN_COMMON_STRING_UTIL_H_
