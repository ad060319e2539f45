// Fixture: must trip exactly [unordered-container].
// A lookup-only set is harmless today, but nothing stops a later loop over
// it, so a declaration alone is flagged until an audit justifies the file.
#include <cstdint>
#include <unordered_set>

bool seen_before(std::unordered_set<std::uint32_t>& seen,
                 std::uint32_t video) {
  return !seen.insert(video).second;
}
