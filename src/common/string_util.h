// Small string helpers shared across modules.

#ifndef PRECIS_COMMON_STRING_UTIL_H_
#define PRECIS_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace precis {

/// ASCII lower-casing (the token namespace of the inverted index).
std::string ToLower(std::string_view s);

/// Strips leading/trailing whitespace.
std::string Trim(std::string_view s);

/// Splits on a single character; keeps empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Heap bytes `s` holds, for memory charges: its buffer and terminator
/// once it outgrew the inline (small-string) buffer, otherwise none.
inline size_t StringHeapBytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

/// Parses a finite, non-negative decimal number ("250", "0.5", "1e3") that
/// fills the whole of `text`: a minus sign, trailing junk, nan, inf or a
/// value past double's range fails and leaves `*out` alone.
bool ParseNonNegativeDouble(std::string_view text, double* out);

}  // namespace precis

#endif  // PRECIS_COMMON_STRING_UTIL_H_
