#include "trace/slot_source.h"

#include <utility>

#include "util/error.h"

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

CsvSlotSource::CsvSlotSource(const std::string& path,
                             std::int64_t slot_seconds)
    : owned_(std::make_unique<TraceReader>(path)),
      reader_(owned_.get()),
      slot_seconds_(slot_seconds) {
  CCDN_REQUIRE(slot_seconds_ > 0, "non-positive slot length");
}

CsvSlotSource::CsvSlotSource(TraceReader& reader, std::int64_t slot_seconds)
    : reader_(&reader), slot_seconds_(slot_seconds) {
  CCDN_REQUIRE(slot_seconds_ > 0, "non-positive slot length");
}

std::optional<SlotBatch> CsvSlotSource::next() {
  const MutexLock lock(mu_);
  if (!primed_) {
    lookahead_ = reader_->next();
    if (lookahead_.has_value()) {
      origin_ = lookahead_->timestamp;
      last_timestamp_ = origin_;
    }
    primed_ = true;
  }
  if (!lookahead_.has_value()) return std::nullopt;

  SlotBatch batch;
  batch.slot_index = next_slot_;
  const std::int64_t slot_end =
      origin_ + static_cast<std::int64_t>(next_slot_ + 1) * slot_seconds_;
  // Drain rows belonging to this window; the lookahead row is the first one
  // beyond it (or a later window entirely, which yields interior empties on
  // subsequent calls).
  while (lookahead_.has_value() && lookahead_->timestamp < slot_end) {
    if (lookahead_->timestamp < last_timestamp_) {
      throw ParseError("trace CSV line " + std::to_string(reader_->line()) +
                       ": timestamps not sorted ascending");
    }
    last_timestamp_ = lookahead_->timestamp;
    batch.requests.push_back(*lookahead_);
    lookahead_ = reader_->next();
  }
  if (lookahead_.has_value() && lookahead_->timestamp < last_timestamp_) {
    throw ParseError("trace CSV line " + std::to_string(reader_->line()) +
                     ": timestamps not sorted ascending");
  }
  ++next_slot_;
  return batch;
}

}  // namespace ccdn
