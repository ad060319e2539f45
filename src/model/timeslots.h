// Partition a session trace into fixed-length timeslots.
//
// The scheduler makes one joint redirection + replication decision per slot
// (1 h in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/types.h"

namespace ccdn {

/// Half-open index range [begin, end) into a request vector.
struct SlotRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Index of the slot holding `timestamp`, for slots of `slot_seconds` (> 0)
/// anchored at `origin` <= `timestamp`; nullopt when timestamp - origin
/// does not fit in int64. It never forms a slot's end timestamp, which
/// overflows near INT64_MAX.
[[nodiscard]] inline std::optional<std::size_t> slot_index_of(
    std::int64_t timestamp, std::int64_t origin,
    std::int64_t slot_seconds) noexcept {
  std::int64_t offset = 0;
  if (__builtin_sub_overflow(timestamp, origin, &offset)) return std::nullopt;
  return static_cast<std::size_t>(offset / slot_seconds);
}

/// Split requests (which must be sorted by timestamp ascending) into
/// consecutive slots of `slot_seconds`. Slots are anchored at the first
/// request's timestamp; empty interior slots are preserved (zero-length
/// ranges) so slot indexes align with wall-clock hours.
/// Requires slot_seconds > 0 and every timestamp's offset from the first
/// to fit in int64.
[[nodiscard]] std::vector<SlotRange> partition_into_slots(
    std::span<const Request> requests, std::int64_t slot_seconds);

}  // namespace ccdn
