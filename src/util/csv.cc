#include "util/csv.h"

#include <cstdio>
#include <ostream>

namespace ccdn {

CsvWriter::CsvWriter(std::ostream& out, char delimiter)
    : out_(out), delimiter_(delimiter) {}

std::string CsvWriter::to_cell(double v) {
  // round-trippable representation without locale surprises
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << delimiter_;
    const std::string& field = fields[i];
    const bool needs_quotes =
        field.find(delimiter_) != std::string::npos ||
        field.find('"') != std::string::npos ||
        field.find('\n') != std::string::npos ||
        field.find('\r') != std::string::npos;
    if (!needs_quotes) {
      out_ << field;
      continue;
    }
    out_ << '"';
    for (const char c : field) {
      if (c == '"') out_ << '"';
      out_ << c;
    }
    out_ << '"';
  }
  out_ << '\n';
  ++rows_;
}

}  // namespace ccdn
