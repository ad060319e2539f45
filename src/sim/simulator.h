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
  /// Charge replication for placement *deltas* between consecutive slots
  /// (hotspot caches persist; only newly pushed videos cost origin
  /// traffic). Single-slot runs are unaffected. Disable to re-charge the
  /// full placement every slot.
  bool charge_placement_deltas = true;
  /// Device churn: each hotspot is independently offline for a whole slot
  /// with this probability. Crowdsourced devices are user hardware — they
  /// reboot, lose uplink, get unplugged. The scheduler plans *unaware*
  /// (liveness is only discovered when a redirected request fails), which
  /// is the pessimistic deployment case. 0 disables churn.
  double offline_probability = 0.0;
  std::uint64_t churn_seed = 4242;
  /// Worker threads for the slot-scheduling pipeline. 1 (default) runs the
  /// classic sequential loop; 0 means "use all hardware threads". With N > 1
  /// independent slots are planned and admitted concurrently on a fixed
  /// thread pool and reduced back in slot order, so the report is
  /// bit-identical to the sequential run (churn masks are pre-drawn
  /// sequentially; placement deltas are charged in the ordered reduction).
  /// Schemes with cross-slot state (clone() == nullptr, e.g. Random) fall
  /// back to the sequential path regardless of this setting.
  std::size_t num_threads = 1;
  /// Bounded planning window for the pipelined executor: at most this many
  /// slot batches are resident/in flight at once, and slot k+W may not
  /// start until slot k's ordered reduction has retired (backpressure, not
  /// barriers). 0 means "2x the worker threads". Both run() overloads use
  /// the same executor, so peak memory is O(window x slot size) even for
  /// the streaming SlotSource path; the window size never changes results
  /// (bit-identical reports and digests at any window and thread count).
  std::size_t max_inflight_slots = 0;
  /// Audit every slot plan before admission: assignment totality/range and
  /// placement shape (count, order, cache capacity). These are the
  /// invariants *every* scheme owes the simulator; scheme-specific
  /// guarantees (capacity feasibility, B_peak) are audited inside the
  /// schemes via their own audit knobs. Violations throw InvariantError.
  /// The checks are compiled out under NDEBUG, but at any level != kOff the
  /// report additionally records a per-slot FNV digest of (assignment,
  /// placements) in every build — see SimulationReport::slot_digests().
  AuditLevel audit_level = AuditLevel::kOff;
  /// Zone-sharded planning (DESIGN.md §3.12), forwarded to the schemes via
  /// SchemeContext::num_shards. 0 = unsharded; 1 = sharded orchestration
  /// with one shard (bit-identical to unsharded); >= 2 = real sharding.
  /// Schemes without a sharded path ignore it, and a scheme's own
  /// num_shards config overrides it.
  std::size_t num_shards = 0;
};

struct SlotMetrics {
  std::size_t requests = 0;
  std::size_t served = 0;
  std::size_t rejected_capacity = 0;   // assigned but hotspot was full
  std::size_t rejected_placement = 0;  // assigned but video not cached
  std::size_t rejected_offline = 0;    // assigned but hotspot was down
  std::size_t sent_to_cdn = 0;         // scheme assigned the CDN directly
  std::size_t replicas = 0;
  double distance_sum_km = 0.0;
};

class SimulationReport {
 public:
  SimulationReport(std::uint32_t num_videos, double cdn_distance_km)
      : num_videos_(num_videos), cdn_distance_km_(cdn_distance_km) {}

  void add_slot(SlotMetrics metrics,
                std::vector<std::uint32_t> hotspot_loads = {},
                StageTimings timings = {},
                std::optional<std::uint64_t> digest = std::nullopt);

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
  /// Per-slot FNV digest of (assignment, placements), parallel to slots().
  /// Empty unless SimulationConfig::audit_level != kOff. Deterministic
  /// across runs and thread counts, so two runs of the same scheme can be
  /// cross-checked slot by slot without retaining the plans themselves.
  [[nodiscard]] const std::vector<std::uint64_t>& slot_digests()
      const noexcept {
    return slot_digests_;
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
  std::vector<std::uint64_t> slot_digests_;
};

/// Admit one slot's plan against the physical constraints (placement must
/// cover the video; per-slot service capacity). Requests the plan cannot
/// serve are charged the CDN distance. When `served_loads` is non-null it
/// receives the per-hotspot served request counts.
/// `available`, when non-empty, marks which hotspots are online this slot
/// (nonzero = up); assignments to offline hotspots are rejected to the CDN.
[[nodiscard]] SlotMetrics admit_slot(
    const std::vector<Hotspot>& hotspots, const SlotPlan& plan,
    std::span<const Request> requests, double cdn_distance_km,
    std::vector<std::uint32_t>* served_loads = nullptr,
    std::span<const std::uint8_t> available = {});

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

  /// Run a scheme over a slot stream in bounded memory: at most
  /// config().max_inflight_slots batches are ever resident. Churn masks
  /// are drawn in slot order as batches are pulled and placement deltas
  /// are charged in the ordered reduction, so the report and per-slot
  /// digests are bit-identical to the in-memory run on the equivalent
  /// materialized trace, at any thread count and window size. Schemes
  /// without clone() are planned sequentially on the pulling thread
  /// (still bounded: one batch resident).
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
