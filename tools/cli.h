// What the command-line tools share: the accepted range of each numeric
// flag, and the one factory that turns a --scheme name into a scheme. A
// flag value outside its range is a usage error (exit 2) naming the flag
// and the range, reported before any file is opened.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"

namespace ccdn::cli {

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
/// Run sizes: --threads starts that many workers (0 = one per hardware
/// thread) and keeps twice as many slot batches and scheme clones
/// resident, and --shards cuts the hotspots into that many zones (0 =
/// unsharded; more zones than hotspots clamp).
inline constexpr std::int64_t kMaxThreads = 1024;
inline constexpr std::int64_t kMaxShards = 1'000'000;

/// The scheme --scheme=`name` selects (rbcaer|nearest|random|virtual), or
/// nullptr for any other name. The RBCAer family audits its own plans at
/// `audit_level` (checked builds only); the baselines do not audit.
/// Neither takes a shard count here: SimulationConfig::num_shards reaches
/// the RBCAer family through SchemeContext.
[[nodiscard]] inline SchemePtr scheme_by_name(const std::string& name,
                                              AuditLevel audit_level) {
  if (name == "nearest") return std::make_unique<NearestScheme>();
  if (name == "random") return std::make_unique<RandomScheme>();
  if (name == "rbcaer") {
    RbcaerConfig config;
    config.audit_level = audit_level;
    return std::make_unique<RbcaerScheme>(config);
  }
  if (name == "virtual") {
    VirtualRbcaerConfig config;
    config.regional.audit_level = audit_level;
    return std::make_unique<VirtualRbcaerScheme>(config);
  }
  return nullptr;
}

}  // namespace ccdn::cli
