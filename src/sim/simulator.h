// Trace-driven simulator (paper §V).
//
// Drives a RedirectionScheme over a session trace, slot by slot, and
// *admits* each plan under the physical constraints: a request assigned to
// hotspot j is served only if j has the video placed and service capacity
// left this slot; everything else falls back to the origin CDN server at
// the 20 km distance penalty. The four reported metrics are exactly the
// paper's (§V-A): hotspot serving ratio, average content access distance,
// content replication cost, and CDN server load.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/scheme.h"
#include "model/timeslots.h"
#include "model/types.h"
#include "trace/slot_source.h"
#include "verify/audit.h"

namespace ccdn {

struct SimulationConfig {
  /// Slot length; the paper's joint decision granularity. One slot covering
  /// the whole trace reproduces the single-epoch §V setup; 3600 s gives the
  /// hourly view used by the measurement study.
  std::int64_t slot_seconds = 24 * 3600;
  double cdn_distance_km = kCdnDistanceKm;
  /// Record per-slot per-hotspot served load (needed by the correlation
  /// analysis; off by default to keep reports small).
  bool record_hotspot_loads = false;
  /// Worker threads for the slot-scheduling pipeline. 1 (default) runs the
  /// classic sequential loop; 0 means "use all hardware threads". With N > 1
  /// independent slots are planned and admitted concurrently on N lanes and
  /// reduced back in slot order, so the report is bit-identical to the
  /// sequential run (placement deltas are charged in the ordered
  /// reduction). At most 2N slot batches are resident: slot k+2N is not
  /// pulled until slot k has been reduced.
  /// Schemes with cross-slot state (clone() == nullptr, e.g. Random) fall
  /// back to the sequential path regardless of this setting.
  std::size_t num_threads = 1;
  /// Audit every slot plan before admission and keep one SlotVerdict per
  /// slot in SimulationReport::verdicts(), in every build: assignment
  /// totality and range and placement shape (count, order, cache
  /// capacity), the invariants every scheme owes the simulator, plus
  /// service capacity for schemes whose plans_within_capacity() says they
  /// respect s_h. A violation is recorded in the verdict, not thrown, so
  /// one run reports every broken slot. kPlan and kFull audit alike here;
  /// the schemes' own audit knobs add their internal checks.
  AuditLevel audit_level = AuditLevel::kOff;
  /// Zone-sharded planning (DESIGN.md §3.12), forwarded to the schemes via
  /// SchemeContext::num_shards. 0 = unsharded; 1 = sharded orchestration
  /// with one shard (bit-identical to unsharded); >= 2 = real sharding.
  /// Schemes without a sharded path ignore it.
  std::size_t num_shards = 0;
};

struct SlotMetrics {
  std::size_t requests = 0;
  std::size_t served = 0;
  std::size_t rejected_capacity = 0;   // assigned but hotspot was full
  std::size_t rejected_placement = 0;  // assigned but video not cached
  std::size_t sent_to_cdn = 0;         // scheme assigned the CDN directly
  /// Placements not held by the previous slot's plan: hotspot caches
  /// persist, so only newly pushed videos cost origin traffic.
  std::size_t replicas = 0;
  double distance_sum_km = 0.0;
};

/// The audit of one slot's plan (SimulationConfig::audit_level).
struct SlotVerdict {
  /// plan_digest() of the plan: equal plans give equal digests on every
  /// platform and thread count.
  std::uint64_t digest = 0;
  /// Every contract the plan breaks; ok() when it is clean.
  AuditReport audit;
};

class SimulationReport {
 public:
  SimulationReport(std::uint32_t num_videos, double cdn_distance_km)
      : num_videos_(num_videos), cdn_distance_km_(cdn_distance_km) {}

  void add_slot(SlotMetrics metrics,
                std::vector<std::uint32_t> hotspot_loads = {},
                StageTimings timings = {},
                std::optional<SlotVerdict> verdict = std::nullopt);

  [[nodiscard]] std::size_t total_requests() const noexcept { return requests_; }
  [[nodiscard]] std::size_t served_by_hotspots() const noexcept {
    return served_;
  }
  [[nodiscard]] std::size_t total_replicas() const noexcept { return replicas_; }

  /// Fraction of requests served by hotspots.
  [[nodiscard]] double serving_ratio() const noexcept;
  /// Mean request→server distance in km (CDN counted at the penalty).
  [[nodiscard]] double average_distance_km() const noexcept;
  /// Replicas pushed to hotspots, normalized by the video-set size.
  [[nodiscard]] double replication_cost() const noexcept;
  /// (unserved + replicas) / total requests — the paper's combined metric.
  [[nodiscard]] double cdn_server_load() const noexcept;

  [[nodiscard]] const std::vector<SlotMetrics>& slots() const noexcept {
    return slots_;
  }
  /// Per-slot per-hotspot served load (empty unless recording was enabled).
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& hotspot_loads()
      const noexcept {
    return hotspot_loads_;
  }
  /// Per-slot stage timing breakdown (parallel to slots()). Wall-clock
  /// measurements — the only report field that is *not* deterministic
  /// across runs or thread counts.
  [[nodiscard]] const std::vector<StageTimings>& stage_timings()
      const noexcept {
    return stage_timings_;
  }
  /// Sum of the per-slot stage timings.
  [[nodiscard]] StageTimings total_stage_timings() const noexcept;
  /// One verdict per slot, parallel to slots(); empty unless
  /// SimulationConfig::audit_level != kOff. Deterministic across runs and
  /// thread counts, so two runs of the same scheme can be cross-checked
  /// slot by slot without retaining the plans themselves.
  [[nodiscard]] const std::vector<SlotVerdict>& verdicts() const noexcept {
    return verdicts_;
  }

 private:
  std::uint32_t num_videos_;
  double cdn_distance_km_;
  std::size_t requests_ = 0;
  std::size_t served_ = 0;
  std::size_t replicas_ = 0;
  double distance_sum_km_ = 0.0;
  std::vector<SlotMetrics> slots_;
  std::vector<std::vector<std::uint32_t>> hotspot_loads_;
  std::vector<StageTimings> stage_timings_;
  std::vector<SlotVerdict> verdicts_;
};

/// Admit one slot's plan against the physical constraints (placement must
/// cover the video; per-slot service capacity). Requests the plan cannot
/// serve are charged the CDN distance. When `served_loads` is non-null it
/// receives the per-hotspot served request counts.
[[nodiscard]] SlotMetrics admit_slot(
    const std::vector<Hotspot>& hotspots, const SlotPlan& plan,
    std::span<const Request> requests, double cdn_distance_km,
    std::vector<std::uint32_t>* served_loads = nullptr);

/// Throw ParseError naming the first request whose video id is outside
/// `catalog` (id >= num_videos). Trace rows are external data; without this
/// check a scheme would place, and admission would serve, a video that does
/// not exist.
void require_catalog_videos(std::span<const Request> requests,
                            VideoCatalog catalog);

class Simulator {
 public:
  /// `hotspots` must have capacities assigned; `requests` sorted by time.
  Simulator(std::vector<Hotspot> hotspots, VideoCatalog catalog,
            SimulationConfig config = {});

  /// Run a scheme over the whole trace (delegates to the streaming
  /// executor through a VectorSlotSource, so both overloads share one
  /// pipeline and produce identical reports on equal traces).
  [[nodiscard]] SimulationReport run(RedirectionScheme& scheme,
                                     std::span<const Request> requests) const;

  /// Run a scheme over a slot stream in bounded memory: at most twice
  /// config().num_threads batches are ever resident. Placement deltas are
  /// charged in the ordered reduction, so the report and its verdicts are
  /// bit-identical to the in-memory run on the equivalent materialized
  /// trace, at any thread count. Schemes without clone() are planned
  /// sequentially on the pulling thread (still bounded: one batch
  /// resident). A request whose video is outside the catalog throws
  /// ParseError (see require_catalog_videos).
  [[nodiscard]] SimulationReport run(RedirectionScheme& scheme,
                                     SlotSource& source) const;

  [[nodiscard]] const std::vector<Hotspot>& hotspots() const noexcept {
    return hotspots_;
  }
  [[nodiscard]] const GridIndex& hotspot_index() const noexcept {
    return index_;
  }
  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return config_;
  }

 private:
  std::vector<Hotspot> hotspots_;
  VideoCatalog catalog_;
  SimulationConfig config_;
  GridIndex index_;
};

}  // namespace ccdn
