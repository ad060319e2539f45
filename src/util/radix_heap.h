// Monotone 64-bit radix heap for Dijkstra on integer costs.
//
// A binary heap pays O(log n) compare-and-swap shuffles per push and pop.
// For monotone workloads — every pushed key is >= the last popped key,
// which Dijkstra with non-negative integer weights guarantees — a radix
// heap does both operations in O(1) amortized: an entry is binned by the
// position of the highest bit in which its key differs from the last
// popped minimum, and is re-binned at most 64 times over its lifetime
// (each re-bin strictly lowers its bucket index).
//
// No solver uses it at present: the MCMF core runs on double costs and a
// binary heap (DESIGN.md §3.11). Keys are raw uint64 values (non-negative
// int64 distances order identically as uint64); values are the 32-bit
// payload (a NodeId). Ties pop in unspecified order, exactly like
// std::push_heap/pop_heap — callers needing a deterministic tie order must
// not depend on either heap's.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.h"

namespace ccdn {

class RadixHeap64 {
 public:
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  // (key, value)

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Drop all entries and reset the monotone floor to zero. Bucket storage
  /// is retained, so a search loop reusing one heap allocates nothing once
  /// the buckets reach steady-state size.
  void clear() noexcept {
    for (auto& bucket : buckets_) bucket.clear();
    last_ = 0;
    size_ = 0;
  }

  /// Requires key >= the key of the last pop() (monotonicity).
  void push(std::uint64_t key, std::uint32_t value) {
    CCDN_ASSERT(key >= last_, "radix heap requires monotone keys");
    buckets_[bucket_of(key, last_)].emplace_back(key, value);
    ++size_;
  }

  /// Remove and return a minimum-key entry.
  Entry pop() {
    CCDN_REQUIRE(size_ > 0, "pop from empty radix heap");
    if (buckets_[0].empty()) {
      // Refill: find the lowest non-empty bucket, advance the floor to its
      // minimum key, and re-bin its entries. Everything with the new
      // minimum key lands in bucket 0 (key == last_); the rest drop to
      // strictly lower buckets than the one they left.
      std::size_t b = 1;
      while (buckets_[b].empty()) ++b;
      std::uint64_t min_key = buckets_[b].front().first;
      for (const Entry& entry : buckets_[b]) {
        if (entry.first < min_key) min_key = entry.first;
      }
      last_ = min_key;
      for (const Entry& entry : buckets_[b]) {
        buckets_[bucket_of(entry.first, last_)].push_back(entry);
      }
      buckets_[b].clear();
    }
    const Entry top = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return top;
  }

 private:
  /// Entries are binned by the highest differing bit vs the current floor:
  /// bucket 0 holds keys equal to the floor, bucket i keys differing first
  /// at bit i-1.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t key,
                                             std::uint64_t floor) noexcept {
    return key == floor
               ? 0
               : static_cast<std::size_t>(64 - std::countl_zero(key ^ floor));
  }

  std::array<std::vector<Entry>, 65> buckets_;
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ccdn
