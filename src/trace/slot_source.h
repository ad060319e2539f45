// SlotSource — pull-based slot-batch ingestion for the streaming pipeline.
//
// A SlotSource hands the simulator one timeslot's requests at a time, in
// slot order, so the consumer's resident set is bounded by its in-flight
// window instead of the trace length (DESIGN.md §3.9). Every source must
// emit exactly the slot sequence partition_into_slots would produce on the
// equivalent materialized trace: batches are keyed by consecutive slot
// indices starting at 0, interior empty slots yield empty batches, and no
// trailing empty slots are emitted. That contract is what makes the
// streaming run's report and per-slot digests bit-identical to the
// in-memory run.
//
// Two implementations:
//   * VectorSlotSource — adapter over an in-memory trace (the reference the
//                        equivalence tests compare against).
//   * CsvSlotSource    — chunked CSV ingestion; never loads the file. A
//                        regular file is parsed in 128 KiB pieces, a ring
//                        of 8 ahead of the puller, as parse tasks on the
//                        pool its caller lends (Simulator::run lends its
//                        lanes), with TraceReader reading the rest of the
//                        file from the first piece the parallel parser
//                        does not accept.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/timeslots.h"
#include "model/types.h"
#include "trace/trace_io.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ccdn {

/// One timeslot's worth of trace, owned by the consumer once pulled.
struct SlotBatch {
  /// Consecutive from 0 in emission order.
  std::size_t slot_index = 0;
  /// The slot's requests, sorted by timestamp (empty for interior slots).
  std::vector<Request> requests;
};

class SlotSource {
 public:
  virtual ~SlotSource() = default;

  /// Pull the next slot batch, or nullopt when the trace is exhausted.
  /// Implementations serialize their cursor state internally (each cursor
  /// is CCDN_GUARDED_BY a per-source mutex), so a call is atomic; the slot
  /// ORDER across concurrent pullers is still scheduling-dependent, which
  /// is why the simulator pulls from exactly one thread.
  [[nodiscard]] virtual std::optional<SlotBatch> next() = 0;

  /// Window length the source partitions on.
  [[nodiscard]] virtual std::int64_t slot_seconds() const noexcept = 0;
};

/// Adapter over a materialized trace (sorted by timestamp). Borrows the
/// request storage, which must outlive the source. Each batch copies one
/// slot's span, so streaming consumers see identical ownership semantics
/// across all sources.
class VectorSlotSource final : public SlotSource {
 public:
  VectorSlotSource(std::span<const Request> requests,
                   std::int64_t slot_seconds);

  [[nodiscard]] std::optional<SlotBatch> next() override;
  [[nodiscard]] std::int64_t slot_seconds() const noexcept override {
    return slot_seconds_;
  }

 private:
  std::span<const Request> requests_;
  std::int64_t slot_seconds_;
  std::vector<SlotRange> ranges_;
  Mutex mu_;
  std::size_t cursor_ CCDN_GUARDED_BY(mu_) = 0;
};

/// Chunked CSV source: groups a trace's rows into slot windows anchored at
/// the first request's timestamp. Requires rows sorted by timestamp, and
/// every row's offset from the first row to fit in int64; either breach
/// throws ParseError naming the offending line.
///
/// The path constructor reads a regular file in pieces (DESIGN.md §3.9).
/// Past the header, the file is cut into 128 KiB byte ranges, and each
/// piece owns the rows that start in its range. A ring of 8 pieces parses
/// ahead of the puller: each piece is one task that also preads its bytes,
/// run as a parse task on the pool lent to the calling thread
/// (ThreadPool::Lend), so a queued slot task always goes first, or inline
/// when none is lent. When the puller asks for a piece, the one it handed
/// out last is cut to the next range and its task submitted at once, so
/// later pieces parse while the puller cuts slots; ~CsvSlotSource and a
/// throwing next() wait for every piece task still out. The parse also counts the
/// piece's leading rows in ascending timestamp order, and within that run
/// the puller finds a slot's end by a binary search and appends its rows
/// with one insert. A piece is kept only when it is clean: each of its rows
/// is a one-pass row (parse_plain_row) and the last row's LF lies at most
/// 4 KiB past the range. From the first piece that is not clean, a
/// TraceReader resumed at that piece's first row reads the rest of the
/// file. So every batch, ParseError text, line number and throwing next()
/// call is the one CsvSlotSource(TraceReader&) gives, which reads every
/// row through the reader, as the path constructor does on a file that is
/// not regular (a pipe, say).
class CsvSlotSource final : public SlotSource {
 public:
  CsvSlotSource(const std::string& path, std::int64_t slot_seconds);
  /// Borrow an externally owned reader (must outlive the source).
  CsvSlotSource(TraceReader& reader, std::int64_t slot_seconds);
  ~CsvSlotSource() override;

  [[nodiscard]] std::optional<SlotBatch> next() override;
  [[nodiscard]] std::int64_t slot_seconds() const noexcept override {
    return slot_seconds_;
  }

 private:
  class Pieces;

  /// next() without the wait for the piece tasks on its throw path.
  std::optional<SlotBatch> next_batch() CCDN_REQUIRES(mu_);
  /// Makes unread_ non-empty; false at the end of the trace.
  bool refill() CCDN_REQUIRES(mu_);
  /// Checks `r`, on `line`, against the rows before it; returns its slot.
  std::size_t admit(const Request& r, std::size_t line) CCDN_REQUIRES(mu_);

  std::string path_;
  std::int64_t slot_seconds_;
  Mutex mu_;
  std::unique_ptr<TraceReader> owned_ CCDN_GUARDED_BY(mu_);
  TraceReader* reader_ CCDN_GUARDED_BY(mu_) CCDN_PT_GUARDED_BY(mu_);
  /// Set while the rows come from pieces; then reader_ is null.
  std::unique_ptr<Pieces> pieces_ CCDN_GUARDED_BY(mu_);
  /// Rows read but not yet in a batch: a clean piece's rows, or held_.
  std::span<const Request> unread_ CCDN_GUARDED_BY(mu_);
  /// Leading rows of unread_ in ascending timestamp order (at least one
  /// while unread_ is not empty).
  std::size_t sorted_ CCDN_GUARDED_BY(mu_) = 0;
  Request held_ CCDN_GUARDED_BY(mu_);  // the reader's latest row
  std::size_t line_ CCDN_GUARDED_BY(mu_) = 0;  // line of unread_.front()
  std::optional<std::int64_t> origin_ CCDN_GUARDED_BY(mu_);
  std::int64_t last_timestamp_ CCDN_GUARDED_BY(mu_) = 0;
  std::size_t next_slot_ CCDN_GUARDED_BY(mu_) = 0;
};

}  // namespace ccdn
