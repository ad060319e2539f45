// Trace (de)serialization.
//
// The CSV schema mirrors the paper's session-trace fields: user id, session
// timestamp, requested video, and the watch location.
//
// Besides the whole-trace helpers, this header provides the chunked pair
// the streaming pipeline is built on (DESIGN.md §3.9):
//   * TraceReader — pulls one request at a time through a block buffer,
//     never holding the file in memory, and names the offending physical
//     line on errors. It can also resume a file at a row start, which is
//     how CsvSlotSource hands the rest of a file to it from the first
//     piece its parallel parser does not accept.
//   * parse_plain_row — the one-pass row, shared by TraceReader and
//     CsvSlotSource's pieces.
//   * TraceWriter — appends request batches and flushes after each one, so
//     a trace larger than memory can be written slot batch by slot batch.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/types.h"
#include "util/csv.h"

namespace ccdn {

/// Write `requests` as CSV with a header row. A path that cannot be
/// opened for writing, and a write that fails, throw ParseError.
void write_trace_csv(std::ostream& out, const std::vector<Request>& requests);
void write_trace_csv(const std::string& path,
                     const std::vector<Request>& requests);

/// Read a trace written by write_trace_csv. Throws ParseError on a path
/// that cannot be opened, and on schema or field errors (naming the
/// offending line): ids that do not fit their type, and coordinates that
/// are not finite or lie off the globe (latitude outside [-90, 90],
/// longitude outside [-180, 180]).
[[nodiscard]] std::vector<Request> read_trace_csv(std::istream& in);
[[nodiscard]] std::vector<Request> read_trace_csv(const std::string& path);

/// The one-pass row (DESIGN.md §3.9): five from_chars calls straight off
/// [first, last), the ids into their own unsigned type, each value ending
/// exactly at its ',' and the last at LF or CR LF before `last`, then the
/// coordinates on the globe (nan and inf fail that too). Returns the byte
/// after the row's LF, with the row in `r`; or nullptr, with `r` partly
/// written, for any row it cannot accept whole. It accepts no blank, quote,
/// '+', empty or sixth field, so what it accepts is one physical line that
/// the general path reads to the same values; everything else, errors
/// included, is the general path's.
[[nodiscard]] const char* parse_plain_row(const char* first, const char* last,
                                          Request& r);

/// Incremental trace reader: validates the header on construction, then
/// yields one request per next() call in O(block + longest row) memory.
/// It reads 64 KiB blocks and parses each row in place. A plain row (five
/// bare numbers, already whole in the block) is read in one pass; any
/// other row takes the general path, where only a row holding a '"' is
/// unquoted (RFC 4180). A row ends at LF or CRLF; any other CR stays in
/// its field. ParseError messages carry the 1-based physical line the
/// malformed row starts on (the header is line 1; newlines inside quoted
/// fields count). The stream variant borrows `in`, which must outlive the
/// reader; the path variant owns its file handle.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in);
  explicit TraceReader(const std::string& path);
  /// Resumes `path` at byte `offset`, where a row on physical line `line`
  /// starts, and reads no header (the resumed reader of CsvSlotSource).
  TraceReader(const std::string& path, std::uint64_t offset,
              std::size_t line);

  /// Next request, or nullopt at end of file.
  [[nodiscard]] std::optional<Request> next();

  /// Physical line the most recently consumed row starts on (1 = header).
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  /// Physical line the next row starts on.
  [[nodiscard]] std::size_t next_line() const noexcept { return next_line_; }
  /// Input offset of the next row, header included; for a reader opened
  /// on a path (resumed or not), its byte offset in the file.
  [[nodiscard]] std::uint64_t offset() const noexcept {
    return base_ + begin_;
  }
  /// Data rows successfully parsed so far.
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }

 private:
  void read_header();
  /// parse_plain_row on the buffer. Consumes the row into `r` only when it
  /// accepts it; otherwise changes no reader state, and next() takes the
  /// general path, which alone reports errors.
  bool read_plain_row(Request& r);
  /// Splits the next row into fields_; false at end of input.
  bool next_row();
  /// next_row() for a row holding a '"': unquotes it in place.
  void split_quoted_row();
  /// Moves the unread bytes to the front, grows a full buffer, and reads
  /// more; false at end of input.
  bool fill();

  std::ifstream owned_;
  std::istream* in_;
  std::vector<char> buffer_;  // unread input is [begin_, end_)
  std::uint64_t base_ = 0;    // input offset of buffer_[0]
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::vector<std::string_view> fields_;  // into buffer_, until fill()
  std::vector<std::size_t> field_ends_;   // split_quoted_row() scratch
  std::size_t line_ = 0;
  std::size_t next_line_ = 1;
  std::size_t rows_ = 0;
};

/// Incremental trace writer: emits and flushes the header on construction,
/// then writes and flushes one batch per append() call, so peak memory is
/// O(batch) regardless of trace length. The stream variant borrows `out`.
/// A stream that has failed after a flush (a full disk) throws ParseError
/// naming the path, so a trace is never reported written when it is not.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out);
  explicit TraceWriter(const std::string& path);

  /// Write one batch of rows and flush the underlying stream.
  void append(std::span<const Request> batch);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  void write_header();
  void flush();

  std::ofstream owned_;
  std::ostream* out_;
  CsvWriter writer_;
  std::string name_;  // the path, for errors
  std::size_t rows_ = 0;
};

}  // namespace ccdn
