#include "model/timeslots.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/error.h"

namespace ccdn {
namespace {

Request at(std::int64_t ts) {
  Request r;
  r.timestamp = ts;
  return r;
}

TEST(TimeSlots, EmptyTrace) {
  const std::vector<Request> requests;
  EXPECT_TRUE(partition_into_slots(requests, 3600).empty());
}

TEST(TimeSlots, SingleSlot) {
  const std::vector<Request> requests{at(0), at(100), at(3599)};
  const auto slots = partition_into_slots(requests, 3600);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].begin, 0u);
  EXPECT_EQ(slots[0].end, 3u);
  EXPECT_EQ(slots[0].size(), 3u);
}

TEST(TimeSlots, BoundaryBelongsToNextSlot) {
  const std::vector<Request> requests{at(0), at(3600)};
  const auto slots = partition_into_slots(requests, 3600);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].size(), 1u);
  EXPECT_EQ(slots[1].size(), 1u);
}

TEST(TimeSlots, AnchoredAtFirstRequest) {
  const std::vector<Request> requests{at(7200), at(7300), at(10800)};
  const auto slots = partition_into_slots(requests, 3600);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].size(), 2u);
  EXPECT_EQ(slots[1].size(), 1u);
}

TEST(TimeSlots, PreservesEmptyInteriorSlots) {
  const std::vector<Request> requests{at(0), at(3 * 3600 + 5)};
  const auto slots = partition_into_slots(requests, 3600);
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_EQ(slots[0].size(), 1u);
  EXPECT_EQ(slots[1].size(), 0u);
  EXPECT_EQ(slots[2].size(), 0u);
  EXPECT_EQ(slots[3].size(), 1u);
}

TEST(TimeSlots, RangesAreContiguousAndCover) {
  std::vector<Request> requests;
  for (int i = 0; i < 100; ++i) requests.push_back(at(i * 137));
  const auto slots = partition_into_slots(requests, 1000);
  std::size_t cursor = 0;
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.begin, cursor);
    cursor = slot.end;
  }
  EXPECT_EQ(cursor, requests.size());
}

TEST(TimeSlots, RejectsUnsortedInput) {
  const std::vector<Request> requests{at(100), at(50)};
  EXPECT_THROW((void)partition_into_slots(requests, 3600),
               PreconditionError);
}

TEST(TimeSlots, SlotsNearTheLastSecondDoNotOverflow) {
  // The slot's end, origin + slot_seconds, would lie past INT64_MAX.
  const std::vector<Request> one{at(9223372036854775800)};
  const auto slots = partition_into_slots(one, 3600);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].size(), 1u);
  // Offsets 0, INT64_MAX - 1 and INT64_MAX, in slots of INT64_MAX.
  const std::vector<Request> widest{at(INT64_MIN), at(-2), at(-1)};
  const auto two = partition_into_slots(widest, INT64_MAX);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].size(), 2u);
  EXPECT_EQ(two[1].size(), 1u);
}

TEST(TimeSlots, RejectsOffsetsPastInt64) {
  const std::vector<Request> requests{at(-9'000'000'000'000'000'000),
                                      at(9'000'000'000'000'000'000)};
  EXPECT_THROW((void)partition_into_slots(requests, 3600),
               PreconditionError);
}

TEST(TimeSlots, RejectsNonPositiveSlotLength) {
  const std::vector<Request> requests{at(0)};
  EXPECT_THROW((void)partition_into_slots(requests, 0), PreconditionError);
}

}  // namespace
}  // namespace ccdn
