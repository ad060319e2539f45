#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <system_error>

#include "util/error.h"
#include "util/strings.h"

namespace ccdn {

namespace {
const char* const kHeader[] = {"user", "timestamp", "video", "lat", "lon"};

/// Bytes per read() call: enough to make the per-call cost vanish per row,
/// small enough not to show in peak RSS. The buffer doubles only to hold a
/// longer row.
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

/// First `c` in [first, last), or nullptr.
const char* find_byte(const char* first, const char* last, char c) {
  return static_cast<const char*>(
      std::memchr(first, c, static_cast<std::size_t>(last - first)));
}

[[noreturn]] void fail_row(std::size_t line, const std::string& what) {
  throw ParseError("trace CSV line " + std::to_string(line) + ": " + what);
}

/// A user or video id: rejected when it does not fit the id type, instead
/// of wrapping (-1 would become 4294967295, 2^32 would become 0).
template <typename Id>
Id parse_id(std::string_view field, const char* what) {
  const std::int64_t value = parse_int(field);
  if (value < 0 || value > std::int64_t{std::numeric_limits<Id>::max()}) {
    throw ParseError(std::string(what) + " id out of range: '" +
                     std::string(field) + "'");
  }
  return static_cast<Id>(value);
}

/// A latitude (|value| ≤ 90) or longitude (|value| ≤ 180): from_chars
/// accepts "nan" and "inf", and one such row would turn every distance
/// average it touches into nan; a point off the globe would be served
/// from thousands of kilometres away.
double parse_coordinate(std::string_view field, const char* what,
                        int limit_degrees) {
  const double value = parse_double(field);
  if (!std::isfinite(value)) {
    throw ParseError(std::string(what) + " is not finite: '" +
                     std::string(field) + "'");
  }
  if (std::abs(value) > limit_degrees) {
    const std::string limit = std::to_string(limit_degrees);
    throw ParseError(std::string(what) + " is outside [-" + limit + ", " +
                     limit + "]: '" + std::string(field) + "'");
  }
  return value;
}
}  // namespace

// --- TraceWriter -----------------------------------------------------------

TraceWriter::TraceWriter(std::ostream& out)
    : out_(&out), writer_(*out_), name_("trace stream") {
  write_header();
}

TraceWriter::TraceWriter(const std::string& path)
    : owned_(path), out_(&owned_), writer_(*out_), name_(path) {
  if (!owned_) throw ParseError("cannot open for writing: " + path);
  write_header();
}

void TraceWriter::write_header() {
  writer_.row(kHeader[0], kHeader[1], kHeader[2], kHeader[3], kHeader[4]);
  flush();
}

void TraceWriter::flush() {
  out_->flush();
  if (!*out_) throw ParseError("cannot write: " + name_);
}

void TraceWriter::append(std::span<const Request> batch) {
  for (const Request& r : batch) {
    writer_.row(std::uint64_t{r.user}, r.timestamp, std::uint64_t{r.video},
                r.location.lat, r.location.lon);
  }
  rows_ += batch.size();
  // One flush per batch: the caller controls durability granularity and
  // nothing accumulates in user-space buffers between batches.
  flush();
}

void write_trace_csv(std::ostream& out, const std::vector<Request>& requests) {
  TraceWriter writer(out);
  writer.append(requests);
}

void write_trace_csv(const std::string& path,
                     const std::vector<Request>& requests) {
  TraceWriter writer(path);
  writer.append(requests);
}

// --- TraceReader -----------------------------------------------------------

TraceReader::TraceReader(std::istream& in)
    : in_(&in), buffer_(kBlockBytes) {
  read_header();
}

TraceReader::TraceReader(const std::string& path)
    : owned_(path), in_(&owned_), buffer_(kBlockBytes) {
  if (!owned_) throw ParseError("cannot open for reading: " + path);
  read_header();
}

TraceReader::TraceReader(const std::string& path, std::uint64_t offset,
                         std::size_t line)
    : owned_(path),
      in_(&owned_),
      buffer_(kBlockBytes),
      base_(offset),
      next_line_(line) {
  if (!owned_.seekg(static_cast<std::streamoff>(offset))) {
    throw ParseError("cannot open for reading: " + path);
  }
}

void TraceReader::read_header() {
  if (!next_row() || fields_.size() != 5 || fields_[0] != kHeader[0]) {
    throw ParseError("trace CSV: missing or malformed header");
  }
}

bool TraceReader::fill() {
  std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
  base_ += begin_;
  end_ -= begin_;
  begin_ = 0;
  // A buffer still full holds one unfinished row longer than a block.
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  in_->read(buffer_.data() + end_,
            static_cast<std::streamsize>(buffer_.size() - end_));
  const auto got = static_cast<std::size_t>(in_->gcount());
  end_ += got;
  return got > 0;
}

bool TraceReader::next_row() {
  // Find the row's LF, reading blocks until one arrives or the input ends.
  std::size_t scanned = 0;  // bytes after begin_ known to hold no LF
  const char* newline = nullptr;
  while (true) {
    newline = find_byte(buffer_.data() + begin_ + scanned,
                        buffer_.data() + end_, '\n');
    if (newline != nullptr) break;
    scanned = end_ - begin_;
    if (!fill()) break;
  }
  if (begin_ == end_) return false;
  line_ = next_line_;
  const char* row = buffer_.data() + begin_;
  const char* row_end = newline != nullptr ? newline : buffer_.data() + end_;
  if (find_byte(row, row_end, '"') != nullptr) {
    split_quoted_row();
    return true;
  }
  begin_ = static_cast<std::size_t>(row_end - buffer_.data()) +
           (newline != nullptr ? 1 : 0);
  ++next_line_;
  if (newline != nullptr && row_end != row && row_end[-1] == '\r') --row_end;
  fields_.clear();
  for (const char* field = row;;) {
    const char* comma = find_byte(field, row_end, ',');
    if (comma == nullptr) {
      fields_.emplace_back(field, static_cast<std::size_t>(row_end - field));
      return true;
    }
    fields_.emplace_back(field, static_cast<std::size_t>(comma - field));
    field = comma + 1;
  }
}

void TraceReader::split_quoted_row() {
  // The char-at-a-time RFC-4180 state machine. Each input byte yields at
  // most one output byte, so fields are unquoted in place, and offsets
  // relative to begin_ survive fill() moving the row to the front.
  enum class State { kUnquoted, kQuoted, kQuoteInQuoted };
  State state = State::kUnquoted;
  std::size_t read = 0;
  std::size_t write = 0;
  bool after_cr = false;  // the last byte read was an unquoted CR
  field_ends_.clear();
  ++next_line_;
  while (true) {
    if (begin_ + read == end_ && !fill()) {
      if (state == State::kQuoted) {
        begin_ = end_;
        fail_row(line_, "unterminated quoted field");
      }
      break;
    }
    char* row = buffer_.data() + begin_;
    const char c = row[read++];
    if (state == State::kQuoteInQuoted) {
      if (c == '"') {
        row[write++] = '"';
        state = State::kQuoted;
        continue;
      }
      state = State::kUnquoted;  // that quote closed the field
    }
    if (state == State::kQuoted) {
      if (c == '"') {
        state = State::kQuoteInQuoted;
      } else {
        if (c == '\n') ++next_line_;
        row[write++] = c;
      }
      continue;
    }
    if (c == '\n') {
      if (after_cr) --write;  // CRLF ends the row
      break;
    }
    after_cr = c == '\r';
    const std::size_t field_start = field_ends_.empty() ? 0 : field_ends_.back();
    if (c == '"' && write == field_start) {
      state = State::kQuoted;
    } else if (c == ',') {
      field_ends_.push_back(write);
    } else {
      row[write++] = c;
    }
  }
  field_ends_.push_back(write);
  const char* row = buffer_.data() + begin_;
  fields_.clear();
  std::size_t start = 0;
  for (const std::size_t end : field_ends_) {
    fields_.emplace_back(row + start, end - start);
    start = end;
  }
  begin_ += read;
}

const char* parse_plain_row(const char* first, const char* last,
                            Request& r) {
  const char* at = first;
  // One value ending exactly at `separator`. from_chars takes no blank,
  // quote or '+', and the ids parse as their own unsigned type, so a '-'
  // or an id that does not fit fails here too.
  const auto value = [&](auto& out, char separator) {
    const auto [end, ec] = std::from_chars(at, last, out);
    if (ec != std::errc{} || end == last || *end != separator) return false;
    at = end + 1;
    return true;
  };
  if (!(value(r.user, ',') && value(r.timestamp, ',') &&
        value(r.video, ',') && value(r.location.lat, ','))) {
    return nullptr;
  }
  const auto [end, ec] = std::from_chars(at, last, r.location.lon);
  const char* newline = end;
  if (newline != last && *newline == '\r') ++newline;
  if (ec != std::errc{} || newline == last || *newline != '\n') return nullptr;
  // nan and inf fail these comparisons too.
  if (!(std::abs(r.location.lat) <= 90.0 &&
        std::abs(r.location.lon) <= 180.0)) {
    return nullptr;
  }
  return newline + 1;
}

bool TraceReader::read_plain_row(Request& r) {
  const char* const row_end = parse_plain_row(buffer_.data() + begin_,
                                              buffer_.data() + end_, r);
  if (row_end == nullptr) return false;
  line_ = next_line_++;
  begin_ = static_cast<std::size_t>(row_end - buffer_.data());
  return true;
}

std::optional<Request> TraceReader::next() {
  Request r;
  if (read_plain_row(r)) {
    ++rows_;
    return r;
  }
  if (!next_row()) return std::nullopt;
  if (fields_.size() != 5) {
    fail_row(line_, "expected 5 fields, got " +
                        std::to_string(fields_.size()));
  }
  try {
    r.user = parse_id<UserId>(fields_[0], "user");
    r.timestamp = parse_int(fields_[1]);
    r.video = parse_id<VideoId>(fields_[2], "video");
    r.location.lat = parse_coordinate(fields_[3], "latitude", 90);
    r.location.lon = parse_coordinate(fields_[4], "longitude", 180);
  } catch (const ParseError& error) {
    fail_row(line_, error.what());
  }
  ++rows_;
  return r;
}

std::vector<Request> read_trace_csv(std::istream& in) {
  TraceReader reader(in);
  std::vector<Request> requests;
  while (auto request = reader.next()) requests.push_back(*request);
  return requests;
}

std::vector<Request> read_trace_csv(const std::string& path) {
  TraceReader reader(path);
  std::vector<Request> requests;
  while (auto request = reader.next()) requests.push_back(*request);
  return requests;
}

}  // namespace ccdn
