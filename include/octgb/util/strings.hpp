#pragma once
/// \file strings.hpp
/// Small string utilities shared across modules (PDB parsing, CLI, tables).

#include <string>
#include <string_view>
#include <vector>

namespace octgb::util {

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Split on a single-character delimiter. Empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Upper-case an ASCII string.
std::string to_upper(std::string_view s);

/// Parse a double from a fixed-width field (tolerates surrounding blanks).
/// Returns `fallback` if the field is blank; throws CheckError on garbage.
double parse_double_field(std::string_view field, double fallback);

/// Parse a long long from a fixed-width field (tolerates surrounding
/// blanks). Returns `fallback` if the field is blank; throws CheckError on
/// garbage or a value outside long long.
long long parse_llong_field(std::string_view field, long long fallback);

/// parse_llong_field narrowed to int: also throws CheckError on a value
/// outside int.
int parse_int_field(std::string_view field, int fallback);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte count ("1.4 GB").
std::string human_bytes(double bytes);

/// Human-readable duration from seconds ("3.3 min", "4.8 s", "640 ms").
std::string human_seconds(double seconds);

}  // namespace octgb::util
