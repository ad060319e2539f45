// Fixture: must trip exactly [double-accumulation].
// The enclosing loop's own unordered-iteration finding and the map's
// unordered-container finding are pragma-justified so the fixture isolates
// the accumulation check.
#include <cstdint>
#include <unordered_map>

double total_distance_km(
    // ccdn-lint: allow(unordered-container) -- fixture isolates the
    // accumulation check
    const std::unordered_map<std::uint32_t, double>& per_hotspot) {
  double sum = 0.0;
  // ccdn-lint: allow(unordered-iteration) -- fixture isolates the
  // accumulation check; the loop itself is separately pinned
  for (const auto& [hotspot, km] : per_hotspot) {
    sum += km;  // fp addition is not associative: bits depend on hash order
  }
  return sum;
}
