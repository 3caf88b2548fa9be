#pragma once
/// \file table.hpp
/// Aligned text tables and CSV emission for the benchmark harness.
///
/// Every bench prints the same rows the paper plots, as (a) an aligned table
/// on stdout for humans and (b) an optional CSV file for re-plotting.

#include <string>
#include <vector>

namespace octgb::util {

/// Column-aligned text table with an optional title.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Set the header row. Must be called before adding rows.
  void header(std::vector<std::string> cols);

  /// Append one row; must match the header width.
  void row(std::vector<std::string> cells);

  /// Render the aligned table.
  std::string str() const;

  /// Render as CSV (RFC-4180 quoting for commas/quotes/newlines).
  std::string csv() const;

  /// Write CSV to a file; creates parent-less paths as-is. Returns false on
  /// I/O failure.
  bool write_csv(const std::string& path) const;

  /// Print the aligned table to stdout.
  void print() const;

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace octgb::util
