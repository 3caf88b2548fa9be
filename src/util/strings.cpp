#include "octgb/util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "octgb/util/check.hpp"

namespace octgb::util {

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

double parse_double_field(std::string_view field, double fallback) {
  const std::string_view t = trim(field);
  if (t.empty()) return fallback;
  std::string buf(t);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  OCTGB_CHECK_MSG(end == buf.c_str() + buf.size(),
                  "bad numeric field: '" << buf << "'");
  return v;
}

long long parse_llong_field(std::string_view field, long long fallback) {
  const std::string_view t = trim(field);
  if (t.empty()) return fallback;
  std::string buf(t);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  OCTGB_CHECK_MSG(end == buf.c_str() + buf.size(),
                  "bad integer field: '" << buf << "'");
  OCTGB_CHECK_MSG(errno != ERANGE,
                  "integer field out of range: '" << buf << "'");
  return v;
}

int parse_int_field(std::string_view field, int fallback) {
  const long long v = parse_llong_field(field, fallback);
  OCTGB_CHECK_MSG(v >= std::numeric_limits<int>::min() &&
                      v <= std::numeric_limits<int>::max(),
                  "integer field out of range: '" << trim(field) << "'");
  return static_cast<int>(v);
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return format(u == 0 ? "%.0f %s" : "%.2f %s", bytes, units[u]);
}

std::string human_seconds(double s) {
  if (s >= 120.0) return format("%.1f min", s / 60.0);
  if (s >= 1.0) return format("%.2f s", s);
  if (s >= 1e-3) return format("%.1f ms", s * 1e3);
  return format("%.1f us", s * 1e6);
}

}  // namespace octgb::util
