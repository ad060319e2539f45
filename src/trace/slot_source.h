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
//   * CsvSlotSource    — chunked CSV ingestion via TraceReader; O(batch)
//                        memory, never loads the file.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

/// Chunked CSV source: groups a TraceReader's rows into slot windows
/// anchored at the first request's timestamp. Requires rows sorted by
/// timestamp (a regression throws ParseError naming the offending line).
class CsvSlotSource final : public SlotSource {
 public:
  CsvSlotSource(const std::string& path, std::int64_t slot_seconds);
  /// Borrow an externally owned reader (must outlive the source).
  CsvSlotSource(TraceReader& reader, std::int64_t slot_seconds);

  [[nodiscard]] std::optional<SlotBatch> next() override;
  [[nodiscard]] std::int64_t slot_seconds() const noexcept override {
    return slot_seconds_;
  }

 private:
  std::unique_ptr<TraceReader> owned_;
  TraceReader* reader_ CCDN_PT_GUARDED_BY(mu_);
  std::int64_t slot_seconds_;
  Mutex mu_;
  std::optional<Request> lookahead_ CCDN_GUARDED_BY(mu_);
  bool primed_ CCDN_GUARDED_BY(mu_) = false;
  std::int64_t origin_ CCDN_GUARDED_BY(mu_) = 0;
  std::int64_t last_timestamp_ CCDN_GUARDED_BY(mu_) = 0;
  std::size_t next_slot_ CCDN_GUARDED_BY(mu_) = 0;
};

}  // namespace ccdn
