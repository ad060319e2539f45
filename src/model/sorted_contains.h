// Membership test for the sorted placement lists (y_vj per hotspot).
//
// Admission, miss redirection and Procedure 1 ask "does hotspot h cache
// video v?" once or more per request. The lists are short and the answer
// is close to a coin flip, so a branchy binary search mispredicts on most
// of its steps; this one compiles to conditional moves.
#pragma once

#include <cstddef>
#include <span>

#include "model/types.h"

namespace ccdn {

/// True when `value` is in `sorted` (ascending). A branch-free search for
/// the last element not above `value`: the loop count depends only on the
/// list's size.
[[nodiscard]] inline bool sorted_contains(std::span<const VideoId> sorted,
                                          VideoId value) noexcept {
  if (sorted.empty()) return false;
  const VideoId* base = sorted.data();
  std::size_t n = sorted.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] <= value ? base + half : base;
    n -= half;
  }
  return *base == value;
}

}  // namespace ccdn
