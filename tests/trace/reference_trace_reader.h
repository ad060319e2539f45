// Test-only reference trace reader: the char-at-a-time CSV state machine
// that TraceReader ran before it parsed 64 KiB blocks in place, with the
// same row, CR, quote and line rules. The mutation differential
// (trace_reader_fuzz_test.cc) requires both readers to return the same
// requests and line() values, or ParseErrors with the same text.
#pragma once

#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/types.h"
#include "util/error.h"
#include "util/strings.h"

namespace ccdn {

/// RFC-4180 CSV rows, one istream::get per byte. Outside quotes a row ends
/// at LF or CRLF, and any other CR stays in its field; a '"' opens a quoted
/// field only as the field's first character, and "" inside one is a quote.
class CsvReader {
 public:
  /// Reads from an externally owned stream; the stream must outlive the
  /// reader.
  explicit CsvReader(std::istream& in) : in_(in) {}

  /// Read the next row into `fields`; returns false at end of input.
  /// Throws ParseError on an unterminated quoted field.
  bool read_row(std::vector<std::string>& fields) {
    fields.clear();
    line_ = next_line_;
    std::string field;
    bool in_quotes = false;
    bool saw_any = false;
    char c = 0;
    while (in_.get(c)) {
      saw_any = true;
      if (c == '\n') ++next_line_;
      if (in_quotes) {
        if (c != '"') {
          field += c;
        } else if (in_.peek() == '"') {
          field += static_cast<char>(in_.get());
        } else {
          in_quotes = false;
        }
        continue;
      }
      if (c == '\n') break;
      if (c == '"' && field.empty()) {
        in_quotes = true;
      } else if (c == ',') {
        fields.push_back(std::exchange(field, {}));
      } else if (c != '\r' || in_.peek() != '\n') {
        field += c;
      }
    }
    if (in_quotes) throw ParseError("unterminated quoted field");
    if (!saw_any) return false;
    fields.push_back(std::move(field));
    return true;
  }

  /// 1-based physical line the last row read started on.
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::istream& in_;
  std::size_t line_ = 0;
  std::size_t next_line_ = 1;
};

/// TraceReader's contract spelled out over CsvReader: the header, five
/// fields, ids that fit their type, finite coordinates on the globe
/// (latitude within ±90, longitude within ±180), and every
/// ParseError prefixed with the line the row starts on.
class ReferenceTraceReader {
 public:
  explicit ReferenceTraceReader(std::istream& in) : reader_(in) {
    if (!read_row() || fields_.size() != 5 || fields_[0] != "user") {
      throw ParseError("trace CSV: missing or malformed header");
    }
  }

  std::optional<Request> next() {
    if (!read_row()) return std::nullopt;
    if (fields_.size() != 5) {
      fail("expected 5 fields, got " + std::to_string(fields_.size()));
    }
    try {
      Request r;
      r.user = id<UserId>(fields_[0], "user");
      r.timestamp = parse_int(fields_[1]);
      r.video = id<VideoId>(fields_[2], "video");
      r.location.lat = coordinate(fields_[3], "latitude", 90);
      r.location.lon = coordinate(fields_[4], "longitude", 180);
      return r;
    } catch (const ParseError& error) {
      fail(error.what());
    }
  }

  [[nodiscard]] std::size_t line() const noexcept { return reader_.line(); }

 private:
  bool read_row() {
    try {
      return reader_.read_row(fields_);
    } catch (const ParseError& error) {
      fail(error.what());
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("trace CSV line " + std::to_string(line()) + ": " +
                     what);
  }

  template <typename Id>
  static Id id(const std::string& field, const char* what) {
    const std::int64_t value = parse_int(field);
    if (value < 0 || value > std::int64_t{std::numeric_limits<Id>::max()}) {
      throw ParseError(std::string(what) + " id out of range: '" + field +
                       "'");
    }
    return static_cast<Id>(value);
  }

  static double coordinate(const std::string& field, const char* what,
                           int limit_degrees) {
    const double value = parse_double(field);
    if (!std::isfinite(value)) {
      throw ParseError(std::string(what) + " is not finite: '" + field + "'");
    }
    if (value < -limit_degrees || value > limit_degrees) {
      const std::string limit = std::to_string(limit_degrees);
      throw ParseError(std::string(what) + " is outside [-" + limit + ", " +
                       limit + "]: '" + field + "'");
    }
    return value;
  }

  CsvReader reader_;
  std::vector<std::string> fields_;
};

}  // namespace ccdn
