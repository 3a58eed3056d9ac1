#include "util/csv.hpp"

#include <sstream>
#include <stdexcept>

namespace leo::util {

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : out_(path), columns_(header.size()) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  if (columns_ == 0) {
    throw std::invalid_argument("CsvWriter: empty header");
  }
  write_row(header);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter: row width mismatch");
  }
  write_row(cells);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += "\"\"";
    else quoted.push_back(c);
  }
  quoted += '"';
  return quoted;
}

std::string CsvWriter::cell(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string CsvWriter::cell(std::uint64_t v) { return std::to_string(v); }
std::string CsvWriter::cell(std::int64_t v) { return std::to_string(v); }

}  // namespace leo::util
