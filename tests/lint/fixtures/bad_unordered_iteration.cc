// Fixture: must trip exactly [unordered-iteration].
// Range-for over an unordered_map whose visit order leaks into the output
// vector with no downstream sort. The map's unordered-container finding is
// pragma-justified so the fixture isolates the iteration check.
#include <cstdint>
#include <unordered_map>
#include <vector>

std::vector<std::uint32_t> hot_videos(
    // ccdn-lint: allow(unordered-container) -- fixture isolates the
    // iteration check
    const std::unordered_map<std::uint32_t, std::uint32_t>& counts) {
  std::vector<std::uint32_t> out;
  for (const auto& [video, count] : counts) {
    if (count > 10) out.push_back(video);
  }
  return out;  // hash-order dependent
}

// The explicit-iterator spelling of the same hazard must trip too.
std::vector<std::uint32_t> hot_videos_iter(
    // ccdn-lint: allow(unordered-container) -- fixture isolates the
    // iteration check
    const std::unordered_map<std::uint32_t, std::uint32_t>& counts) {
  std::vector<std::uint32_t> out;
  for (auto it = counts.begin(); it != counts.end(); ++it) {
    if (it->second > 10) out.push_back(it->first);
  }
  return out;  // hash-order dependent
}
