// Fixture: must trip exactly [pragma].
// The allow() is well-formed but carries no `-- <why>` justification, so the
// pragma itself is the finding (the site it covers is suppressed by it —
// grammar errors must not double-report the underlying check).
#include <cstdint>
#include <unordered_map>
#include <vector>

std::vector<std::uint32_t> keys(
    // ccdn-lint: allow(unordered-container) -- fixture isolates the pragma
    // grammar check
    const std::unordered_map<std::uint32_t, std::uint32_t>& m) {
  std::vector<std::uint32_t> out;
  // ccdn-lint: allow(unordered-iteration)
  for (const auto& [k, v] : m) out.push_back(k);
  return out;
}
