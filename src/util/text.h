// Small string helpers shared by the pretty printers and parsers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tigat::util {

// Joins `parts` with `sep`; empty input gives "".
std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Splits on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Appends the decimal form of `value` to `out`, as "%lld" / "%llu"
// would print it, without going through printf.
void append_int(std::string& out, std::int64_t value);
void append_uint(std::string& out, std::uint64_t value);

}  // namespace tigat::util
