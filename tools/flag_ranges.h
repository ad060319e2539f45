// Accepted ranges of the world and trace flags that ccdn-trace and
// audit_run both read. A value outside its range is a usage error (exit 2)
// naming the flag and the range, reported before any file is opened.
#pragma once

#include <cstdint>

namespace ccdn::flag_ranges {

inline constexpr std::int64_t kMaxHotspots = 1'000'000;
inline constexpr std::int64_t kMinVideos = 2;  // generate_world's minimum
inline constexpr std::int64_t kMaxVideos = 4'294'967'295;    // VideoId
inline constexpr std::int64_t kMaxRequests = 4'294'967'295;  // per trace
inline constexpr std::int64_t kMaxHours = 87'600;            // ten years
inline constexpr std::int64_t kMaxSlotSeconds = 2'147'483'647;
/// --capacity is a hotspot's service capacity per slot and --cache its
/// cache, both as shares of the catalog; a cache holds at most all of it.
inline constexpr double kMaxCapacityShare = 1000.0;
inline constexpr double kMaxCacheShare = 1.0;

}  // namespace ccdn::flag_ranges
