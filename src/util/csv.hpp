// csv.hpp — minimal RFC-4180-ish CSV writer for experiment outputs.
//
// Benches write their reproduced tables both to stdout (human-readable
// columns) and, when given a path, to CSV so results can be re-plotted.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace leo::util {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws on failure.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// Appends one row; must match the header's column count.
  void row(const std::vector<std::string>& cells);

  /// Convenience: formats arithmetic values with full precision.
  static std::string cell(double v);
  static std::string cell(std::uint64_t v);
  static std::string cell(std::int64_t v);

 private:
  void write_row(const std::vector<std::string>& cells);
  static std::string escape(const std::string& s);

  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace leo::util
