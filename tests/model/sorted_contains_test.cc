#include "model/sorted_contains.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace ccdn {
namespace {

/// Probes below, above, between and at every element of `list`.
void expect_agrees_with_binary_search(const std::vector<VideoId>& list) {
  std::vector<VideoId> probes{0, 1, std::numeric_limits<VideoId>::max()};
  for (const VideoId v : list) {
    probes.push_back(v);
    if (v > 0) probes.push_back(v - 1);
    if (v < std::numeric_limits<VideoId>::max()) probes.push_back(v + 1);
  }
  for (const VideoId probe : probes) {
    ASSERT_EQ(sorted_contains(list, probe),
              std::binary_search(list.begin(), list.end(), probe))
        << "size " << list.size() << " probe " << probe;
  }
}

TEST(SortedContains, AgreesWithBinarySearchOnEverySize) {
  constexpr VideoId kMax = std::numeric_limits<VideoId>::max();
  for (VideoId n = 0; n <= 70; ++n) {
    std::vector<VideoId> odd;       // gaps between neighbours
    std::vector<VideoId> top;       // ends at the largest id
    std::vector<VideoId> repeated;  // each value twice
    for (VideoId i = 0; i < n; ++i) {
      odd.push_back(2 * i + 1);
      top.push_back(kMax - 2 * (n - 1 - i));
      repeated.push_back(3 + i / 2);
    }
    expect_agrees_with_binary_search(odd);
    expect_agrees_with_binary_search(top);
    expect_agrees_with_binary_search(repeated);
  }
}

}  // namespace
}  // namespace ccdn
