#include "octgb/util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "octgb/util/check.hpp"

namespace octgb::util {

void Table::header(std::vector<std::string> cols) {
  OCTGB_CHECK_MSG(rows_.empty(), "header() must precede rows");
  header_ = std::move(cols);
}

void Table::row(std::vector<std::string> cells) {
  OCTGB_CHECK_MSG(cells.size() == header_.size(),
                  "row width " << cells.size() << " != header width "
                               << header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::str() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  std::ostringstream os;
  if (!title_.empty()) os << "## " << title_ << "\n";
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << (c ? "  " : "") << r[c]
         << std::string(widths[c] - r[c].size(), ' ');
    }
    os << "\n";
  };
  emit(header_);
  std::size_t total = header_.size() ? header_.size() * 2 - 2 : 0;
  for (auto w : widths) total += w;
  os << std::string(total, '-') << "\n";
  for (const auto& r : rows_) emit(r);
  return os.str();
}

static std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string Table::csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c)
      os << (c ? "," : "") << csv_quote(r[c]);
    os << "\n";
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

bool Table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << csv();
  return static_cast<bool>(f);
}

void Table::print() const { std::fputs(str().c_str(), stdout); }

}  // namespace octgb::util
