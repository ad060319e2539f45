// Minimal CSV writer with RFC-4180 style quoting.
//
// Used for trace serialization and for emitting benchmark series that can be
// plotted directly. Fields containing the delimiter, quotes, CR or LF are
// quoted. TraceReader (trace/trace_io.h) reads traces back.
#pragma once

#include <iosfwd>
#include <type_traits>
#include <string>
#include <vector>

namespace ccdn {

class CsvWriter {
 public:
  /// Writes to an externally owned stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out, char delimiter = ',');

  /// Write one row; fields are quoted as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: stringify and write heterogeneous fields.
  template <typename... Fields>
  void row(const Fields&... fields) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(fields));
    (cells.push_back(to_cell(fields)), ...);
    write_row(cells);
  }

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(double v);
  template <typename T>
    requires std::is_integral_v<T>
  static std::string to_cell(T v) {
    return std::to_string(v);
  }

  std::ostream& out_;
  char delimiter_;
  std::size_t rows_ = 0;
};

}  // namespace ccdn
