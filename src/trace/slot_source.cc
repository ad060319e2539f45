#include "trace/slot_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "util/error.h"
#include "util/thread_pool.h"

namespace ccdn {

// --- VectorSlotSource ------------------------------------------------------

VectorSlotSource::VectorSlotSource(std::span<const Request> requests,
                                   std::int64_t slot_seconds)
    : requests_(requests),
      slot_seconds_(slot_seconds),
      ranges_(partition_into_slots(requests, slot_seconds)) {}

std::optional<SlotBatch> VectorSlotSource::next() {
  const MutexLock lock(mu_);
  if (cursor_ >= ranges_.size()) return std::nullopt;
  const SlotRange& range = ranges_[cursor_];
  SlotBatch batch;
  batch.slot_index = cursor_++;
  batch.requests.assign(requests_.begin() + static_cast<std::ptrdiff_t>(range.begin),
                        requests_.begin() + static_cast<std::ptrdiff_t>(range.end));
  return batch;
}

// --- CsvSlotSource ---------------------------------------------------------

namespace {

/// Piece ranges are cut at multiples of this many bytes.
constexpr std::uint64_t kPieceBytes = std::uint64_t{128} << 10;
/// How far past its range a piece reads to finish its last row.
constexpr std::uint64_t kSlackBytes = std::uint64_t{4} << 10;
/// Pieces in the ring, whatever the pool's size: bounds the bytes in flight.
constexpr std::size_t kRingPieces = 8;

struct Piece {
  std::uint64_t begin = 0;  // owns the rows that start in [begin, end)
  std::uint64_t end = 0;
  std::unique_ptr<char[]> bytes;  // [begin - 1, end + slack), kept
  std::vector<Request> rows;
  std::size_t sorted = 0;  // leading rows in ascending timestamp order
  std::uint64_t rows_end = 0;  // past the last row's LF
  bool clean = false;
  std::future<void> task;  // the parse, when it ran on a pool
};

/// pread until all `count` bytes at `offset` are in; false on an error or
/// a file that ends first.
bool read_fully(int fd, char* out, std::size_t count, std::uint64_t offset) {
  while (count > 0) {
    const ssize_t got = ::pread(fd, out, count, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    count -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

/// Reads [begin - 1, end + slack) of the file, cut at its size, and parses
/// the rows that start in [begin, end). A row starts after an LF, so the
/// first is the one after the first LF at or past begin - 1 (the header's
/// LF, for the first piece). That holds whenever the piece before is
/// clean: the row its range cuts is one line, ended by that LF.
void parse_piece(int fd, std::uint64_t size, Piece& piece) {
  piece.rows.clear();
  const std::uint64_t from = piece.begin - 1;
  const auto count = static_cast<std::size_t>(
      std::min(piece.end + kSlackBytes, size) - from);
  if (!piece.bytes) {
    piece.bytes =
        std::make_unique_for_overwrite<char[]>(1 + kPieceBytes + kSlackBytes);
  }
  char* const bytes = piece.bytes.get();
  if (!read_fully(fd, bytes, count, from)) return;
  const char* const last = bytes + count;
  const char* const owned_end = bytes + (piece.end - from);
  const char* row = static_cast<const char*>(std::memchr(bytes, '\n', count));
  if (row == nullptr) return;
  for (++row; row < owned_end;) {
    row = parse_plain_row(row, last, piece.rows.emplace_back());
    if (row == nullptr) return;
  }
  piece.sorted = static_cast<std::size_t>(
      std::is_sorted_until(piece.rows.begin(), piece.rows.end(),
                           [](const Request& a, const Request& b) {
                             return a.timestamp < b.timestamp;
                           }) -
      piece.rows.begin());
  piece.rows_end = from + static_cast<std::uint64_t>(row - bytes);
  piece.clean = true;
}

}  // namespace

/// The rows of a regular file past its header, from a ring of pieces that
/// parse ahead of the puller.
class CsvSlotSource::Pieces {
 public:
  /// Reads `path` from `offset`, the first data row's start, when it is a
  /// regular file (regular() tells). O_NONBLOCK keeps the open of a FIFO
  /// from waiting for a writer; it does not change reads of a regular file.
  Pieces(const std::string& path, std::uint64_t offset)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK)),
        next_(offset),
        resume_(offset) {
    struct stat file {};
    if (fd_ >= 0 && ::fstat(fd_, &file) == 0 && S_ISREG(file.st_mode)) {
      size_ = static_cast<std::uint64_t>(file.st_size);
    } else if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Pieces() {
    join();
    if (fd_ >= 0) ::close(fd_);
  }
  Pieces(const Pieces&) = delete;
  Pieces& operator=(const Pieces&) = delete;

  [[nodiscard]] bool regular() const { return fd_ >= 0; }

  /// The next clean piece that has rows, once its parse is done; null where
  /// the clean pieces end, at the end of the file or at a piece that is not
  /// clean. Every piece the ring does not hold for a hand-out is cut to the
  /// next range first: all of them on the first call, and after that the
  /// ones handed out since, whose rows the caller has used up.
  const Piece* next() {
    while (!stopped_) {
      while (pending_ < kRingPieces && next_ < size_) {
        cut(ring_[(head_ + pending_) % kRingPieces]);
      }
      if (pending_ == 0) return nullptr;
      Piece& piece = ring_[head_];
      if (piece.task.valid()) piece.task.get();
      if (!piece.clean) {
        stopped_ = true;
        break;
      }
      head_ = (head_ + 1) % kRingPieces;
      --pending_;
      resume_ = piece.rows_end;
      if (!piece.rows.empty()) return &piece;
    }
    return nullptr;
  }
  /// Waits for every piece task still out.
  void join() noexcept {
    for (Piece& piece : ring_) {
      if (piece.task.valid()) piece.task.wait();
    }
  }
  /// Whether next() stopped at a piece that is not clean.
  [[nodiscard]] bool stopped() const { return stopped_; }
  /// Where the first row next() has not handed out starts.
  [[nodiscard]] std::uint64_t resume_offset() const { return resume_; }

 private:
  /// Gives `piece` the next range and parses it: as a parse task on the
  /// pool lent to this thread, or inline when none is.
  void cut(Piece& piece) {
    piece.begin = next_;
    next_ = std::min(size_, (next_ / kPieceBytes + 1) * kPieceBytes);
    piece.end = next_;
    piece.clean = false;  // and so it stays if no parse runs
    ++pending_;
    ThreadPool* const pool = ThreadPool::lent();
    if (pool == nullptr) {
      parse_piece(fd_, size_, piece);
      return;
    }
    piece.task = pool->submit(
        [fd = fd_, size = size_, &piece] { parse_piece(fd, size, piece); },
        ThreadPool::TaskClass::kParse);
  }

  int fd_;
  std::uint64_t size_ = 0;
  std::uint64_t next_;    // where the next range starts
  std::uint64_t resume_;  // past the rows handed out
  std::array<Piece, kRingPieces> ring_;
  std::size_t head_ = 0;     // the ring's next piece to hand out
  std::size_t pending_ = 0;  // pieces cut and not yet handed out
  bool stopped_ = false;
};

CsvSlotSource::CsvSlotSource(const std::string& path,
                             std::int64_t slot_seconds)
    : path_(path),
      slot_seconds_(slot_seconds),
      owned_(std::make_unique<TraceReader>(path)),
      reader_(owned_.get()) {
  CCDN_REQUIRE(slot_seconds_ > 0, "non-positive slot length");
  // Past the header, a regular file is read in pieces; anything else (a
  // pipe, say) stays with the reader, which has read past the header.
  line_ = owned_->next_line();
  auto pieces = std::make_unique<Pieces>(path, owned_->offset());
  if (pieces->regular()) {
    pieces_ = std::move(pieces);
    owned_.reset();
    reader_ = nullptr;
  }
}

CsvSlotSource::CsvSlotSource(TraceReader& reader, std::int64_t slot_seconds)
    : slot_seconds_(slot_seconds), reader_(&reader) {
  CCDN_REQUIRE(slot_seconds_ > 0, "non-positive slot length");
}

CsvSlotSource::~CsvSlotSource() = default;

bool CsvSlotSource::refill() {
  if (pieces_ != nullptr) {
    if (const Piece* piece = pieces_->next()) {
      unread_ = piece->rows;
      sorted_ = piece->sorted;
      return true;
    }
    if (!pieces_->stopped()) return false;
    // A TraceReader reads the rest, from the first row the clean pieces
    // did not hand out: every row so far was one line, so it is on line_.
    owned_ = std::make_unique<TraceReader>(path_, pieces_->resume_offset(),
                                           line_);
    reader_ = owned_.get();
    pieces_.reset();
  }
  std::optional<Request> row = reader_->next();
  if (!row.has_value()) return false;
  held_ = *row;
  unread_ = std::span<const Request>(&held_, 1);
  sorted_ = 1;
  line_ = reader_->line();
  return true;
}

std::size_t CsvSlotSource::admit(const Request& r, std::size_t line) {
  const auto fail = [line](const char* what) {
    throw ParseError("trace CSV line " + std::to_string(line) + ": " + what);
  };
  if (!origin_.has_value()) origin_ = last_timestamp_ = r.timestamp;
  if (r.timestamp < last_timestamp_) fail("timestamps not sorted ascending");
  last_timestamp_ = r.timestamp;
  const std::optional<std::size_t> slot =
      slot_index_of(r.timestamp, *origin_, slot_seconds_);
  if (!slot.has_value()) {
    fail("timestamp is more than 2^63 - 1 s after the first row's");
  }
  return *slot;
}

std::optional<SlotBatch> CsvSlotSource::next() {
  const MutexLock lock(mu_);
  try {
    return next_batch();
  } catch (...) {
    // No piece task outlives a call that throws.
    if (pieces_ != nullptr) pieces_->join();
    throw;
  }
}

std::optional<SlotBatch> CsvSlotSource::next_batch() {
  if (unread_.empty() && !refill()) return std::nullopt;
  SlotBatch batch;
  batch.slot_index = next_slot_;
  // Rows join the batch while they fall in its slot. The first row past
  // the slot is read and checked before the batch is returned; it stays
  // unread, and a gap before it yields empty batches. A row that admit()
  // took starts a sorted run whose rows all pass the sort check, so a
  // binary search finds where the slot ends in the run. The row there, and
  // a row past the run (which fails the sort check), go through admit().
  do {
    std::size_t n = 0;
    if (admit(unread_.front(), line_) == next_slot_) {
      const std::int64_t origin = *origin_;
      const std::size_t slot = next_slot_;
      const auto run_end =
          unread_.begin() + static_cast<std::ptrdiff_t>(sorted_);
      n = static_cast<std::size_t>(
          std::partition_point(unread_.begin() + 1, run_end,
                               [&](const Request& r) {
                                 return slot_index_of(r.timestamp, origin,
                                                      slot_seconds_) == slot;
                               }) -
          unread_.begin());
      last_timestamp_ = unread_[n - 1].timestamp;
      while (n < unread_.size() && admit(unread_[n], line_ + n) == slot) ++n;
    }
    const std::span<const Request> rows = unread_.first(n);
    batch.requests.insert(batch.requests.end(), rows.begin(), rows.end());
    unread_ = unread_.subspan(n);
    sorted_ -= n;
    line_ += n;
  } while (unread_.empty() && refill());
  ++next_slot_;
  return batch;
}

}  // namespace ccdn
