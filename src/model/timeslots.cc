#include "model/timeslots.h"

#include <algorithm>

#include "util/error.h"

namespace ccdn {

std::vector<SlotRange> partition_into_slots(std::span<const Request> requests,
                                            std::int64_t slot_seconds) {
  CCDN_REQUIRE(slot_seconds > 0, "slot length must be positive");
  CCDN_REQUIRE(std::is_sorted(requests.begin(), requests.end(),
                              [](const Request& a, const Request& b) {
                                return a.timestamp < b.timestamp;
                              }),
               "requests must be sorted by timestamp");
  std::vector<SlotRange> slots;
  if (requests.empty()) return slots;

  const std::int64_t origin = requests.front().timestamp;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::optional<std::size_t> slot =
        slot_index_of(requests[i].timestamp, origin, slot_seconds);
    CCDN_REQUIRE(slot.has_value(),
                 "timestamps span more than 2^63 - 1 seconds");
    // Empty interior slots hold no requests: [i, i).
    while (slots.size() <= *slot) slots.push_back({i, i});
    slots.back().end = i + 1;
  }
  return slots;
}

}  // namespace ccdn
