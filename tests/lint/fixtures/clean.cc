// Fixture: must pass with zero findings.
// Exercises the benign look-alikes of every check: extract-then-sort over an
// unordered map (pragma-justified), integer accumulation in hash order,
// double accumulation over an ORDERED container, seeded randomness idiom,
// and trace-derived (not wall-clock) time.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

struct Request {
  std::uint64_t timestamp;
  std::uint32_t video;
};

std::vector<std::uint32_t> sorted_videos(
    // ccdn-lint: allow(unordered-container) -- the one iteration site
    // below is justified in place
    const std::unordered_map<std::uint32_t, std::uint32_t>& counts) {
  std::vector<std::uint32_t> out;
  out.reserve(counts.size());
  // ccdn-lint: allow(unordered-iteration) -- extract-then-sort: out is fully
  // ordered below before anything order-sensitive sees it
  for (const auto& [video, count] : counts) out.push_back(video);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t total_requests(
    // ccdn-lint: allow(unordered-container) -- the one iteration site
    // below is justified in place
    const std::unordered_map<std::uint32_t, std::uint32_t>& counts) {
  std::uint64_t total = 0;
  // ccdn-lint: allow(unordered-iteration) -- commutative integer sum; the
  // result is order-independent
  for (const auto& [video, count] : counts) total += count;
  return total;
}

double mean_gap_seconds(const std::vector<Request>& trace) {
  if (trace.size() < 2) return 0.0;
  double gaps = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    gaps += static_cast<double>(trace[i].timestamp -
                                trace[i - 1].timestamp);  // fixed order: ok
  }
  return gaps / static_cast<double>(trace.size() - 1);
}

// Seeded, splittable randomness in the util/rng.h idiom — no libc rand.
std::uint64_t splitmix64_step(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
