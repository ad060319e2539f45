// Request-redirection scheme interface.
//
// A scheme receives one timeslot's requests (plus their aggregation at the
// nearest hotspots) and produces a SlotPlan: the content placement y_vj and
// a serving hotspot per request (x_ij, with kCdnServer playing x_iS). The
// simulator then *admits* the plan, enforcing placement and service-capacity
// constraints uniformly across schemes — a scheme that over-assigns (e.g.
// Nearest routing at a crowded hotspot) sees its excess rejected to the CDN,
// exactly the inefficiency the paper measures.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/grid_index.h"
#include "model/demand.h"
#include "model/types.h"

namespace ccdn {

/// Per-slot wall-clock breakdown of the scheduling pipeline. The demand and
/// admit stages are timed by the simulator; the planning stages are filled
/// in by schemes that support introspection (see
/// RedirectionScheme::last_stage_timings). All values are seconds.
struct StageTimings {
  double demand_s = 0.0;       // request aggregation into SlotDemand
  double partition_s = 0.0;    // H_s/H_t split
  double gc_build_s = 0.0;     // content clustering: top sets + Jd + cut
  double graph_s = 0.0;        // Gd/Gc construction (all θ iterations)
  double mcmf_s = 0.0;         // min-cost max-flow solves
  double replication_s = 0.0;  // Procedure 1 + assignment materialization
  double admit_s = 0.0;        // capacity/placement admission

  StageTimings& operator+=(const StageTimings& other) noexcept {
    demand_s += other.demand_s;
    partition_s += other.partition_s;
    gc_build_s += other.gc_build_s;
    graph_s += other.graph_s;
    mcmf_s += other.mcmf_s;
    replication_s += other.replication_s;
    admit_s += other.admit_s;
    return *this;
  }

  [[nodiscard]] double total_s() const noexcept {
    return demand_s + partition_s + gc_build_s + graph_s + mcmf_s +
           replication_s + admit_s;
  }
};

/// Immutable per-run context shared by all slots.
struct SchemeContext {
  const std::vector<Hotspot>& hotspots;
  /// Spatial index over the hotspot locations (same order as `hotspots`).
  const GridIndex& hotspot_index;
  VideoCatalog catalog;
  double cdn_distance_km = kCdnDistanceKm;
  /// Simulation-wide shard count for schemes that support zone-sharded
  /// planning (DESIGN.md §3.12). 0 = unsharded. Schemes may override via
  /// their own config; schemes without a sharded path ignore it.
  std::size_t num_shards = 0;
};

/// One slot's joint decision.
struct SlotPlan {
  /// y_vj: videos replicated at each hotspot, sorted ascending by id.
  std::vector<std::vector<VideoId>> placements;
  /// x_ij: serving hotspot per request (parallel to the slot's request
  /// span), or kCdnServer.
  std::vector<HotspotIndex> assignment;

  /// Total replicas across hotspots (Ω2 for this slot).
  [[nodiscard]] std::size_t total_replicas() const noexcept;
  /// True if every placement list is sorted, unique, and within the cache
  /// capacity of its hotspot.
  [[nodiscard]] bool respects_caches(
      const std::vector<Hotspot>& hotspots) const;
};

/// Number of (hotspot, video) placements in `current` that are not in
/// `previous` — the origin pushes needed to transition between slots
/// (hotspot caches persist; placements are sorted per hotspot).
[[nodiscard]] std::size_t count_new_replicas(
    const std::vector<std::vector<VideoId>>& previous,
    const std::vector<std::vector<VideoId>>& current);

class RedirectionScheme;
using SchemePtr = std::unique_ptr<RedirectionScheme>;

class RedirectionScheme {
 public:
  virtual ~RedirectionScheme() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Plan one timeslot. `requests` and `demand` describe the same slot;
  /// `demand.request_home()` is parallel to `requests`.
  [[nodiscard]] virtual SlotPlan plan_slot(const SchemeContext& context,
                                           std::span<const Request> requests,
                                           const SlotDemand& demand) = 0;

  /// Independent copy for concurrent planning. Schemes whose plan_slot is a
  /// pure function of (context, requests, demand) return a fresh instance;
  /// schemes with cross-slot state (e.g. the Random baseline's RNG draws)
  /// keep the default nullptr, which makes the parallel simulator fall back
  /// to sequential planning so results never depend on thread interleaving.
  [[nodiscard]] virtual SchemePtr clone() const { return nullptr; }

  /// True when every plan keeps its inbound redirects within the
  /// receivers' service capacities s_h (audit_capacity), so an audited run
  /// checks that tier too. Baselines over-assign by design and leave the
  /// excess to admission, and decorators that plan on other inputs than
  /// the slot's own demand (a forecast) make no such promise.
  [[nodiscard]] virtual bool plans_within_capacity() const { return false; }

  /// Stage breakdown of the most recent plan_slot call, or nullptr for
  /// schemes that do not record one.
  [[nodiscard]] virtual const StageTimings* last_stage_timings() const {
    return nullptr;
  }
};

}  // namespace ccdn
