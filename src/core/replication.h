// Procedure 1: ContentAggregationReplication (paper §IV-D).
//
// Converts the abstract inter-hotspot flows f_ij into concrete per-video
// redirections and replica placements using three efficiency indexes:
//   e_f(i,v,j) = min(f_ij, λ_vi)      — redirectable volume of v from i to j
//   e_u(v,j)   = Σ_i e_f(i,v,j)       — placement efficiency: how much demand
//                                       one replica of v at j would absorb
//   e_l(v,i)   = λ_vi (remaining)     — local offload efficiency
// Redirections are committed in descending e_u order (so one replica serves
// many same-cluster senders); afterwards caches fill with the locally most
// demanded videos until they are full or the replication budget B_peak is
// exhausted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "model/demand.h"
#include "model/types.h"
#include "verify/audit.h"

namespace ccdn {

/// Where (part of) a hotspot's demand for one video is redirected.
struct RedirectTarget {
  std::uint32_t hotspot = 0;
  std::uint32_t count = 0;
};

/// Per-video redirections leaving one hotspot.
struct VideoRedirect {
  VideoId video = 0;
  std::vector<RedirectTarget> targets;
};

struct ReplicationResult {
  /// y_vj, sorted ascending per hotspot.
  std::vector<std::vector<VideoId>> placements;
  /// Redirections per origin hotspot, sorted ascending by video.
  std::vector<std::vector<VideoRedirect>> redirects;
  /// Total units of demand redirected between hotspots.
  std::int64_t total_redirected = 0;
  /// Total replicas placed (Ω2 for the slot).
  std::size_t replicas = 0;
  /// True when the B_peak budget denied at least one placement, in the
  /// redirect phase or the final fill. Implies replicas == replica_budget.
  bool budget_exhausted = false;
};

/// Run Procedure 1. `flows` are the f_ij produced by Algorithm 1;
/// `replica_budget` is B_peak in replica units. At `audit_level` >= kPlan
/// (checked builds only) the result is self-audited before returning —
/// replica count vs B_peak, placement shape vs caches, redirect totals —
/// and a violation throws InvariantError naming the invariant.
[[nodiscard]] ReplicationResult content_aggregation_replication(
    const SlotDemand& demand, std::span<const Hotspot> hotspots,
    std::span<const FlowEntry> flows, std::size_t replica_budget,
    AuditLevel audit_level = AuditLevel::kOff);

/// Turn per-(origin, video) redirect quotas into a per-request assignment:
/// each request drains its origin's quota for its video (in target order);
/// once quotas are exhausted requests stay at their home hotspot, where
/// admission applies the cache/capacity checks. `redirects` is consumed.
[[nodiscard]] std::vector<HotspotIndex> materialize_assignment(
    std::span<const Request> requests, std::span<const HotspotIndex> homes,
    std::vector<std::vector<VideoRedirect>> redirects);

// Procedure 1's bookkeeping, shared with VirtualRbcaerScheme's localization
// pass (DESIGN.md §3.17).

/// λ_hv left to serve where it was requested: one count per pair of a
/// SlotDemand, in its CSR order (SlotDemand::first_pair), drained as
/// redirects commit. The demand must outlive the table.
class RemainingDemand {
 public:
  explicit RemainingDemand(const SlotDemand& demand);
  explicit RemainingDemand(SlotDemand&&) = delete;  // would dangle

  /// What is left of λ_hv; 0 when h did not request v.
  [[nodiscard]] std::uint32_t get(std::uint32_t h, VideoId v) const;
  /// Drain `amount` of λ_hv, which must have that much left.
  void subtract(std::uint32_t h, VideoId v, std::uint32_t amount);

  /// Hotspot h's row: its λ_hv pairs, ascending by video, and what is left
  /// of each, parallel.
  [[nodiscard]] std::span<const VideoDemand> pairs(std::uint32_t h) const {
    return demand_.video_demand(h);
  }
  [[nodiscard]] std::span<const std::uint32_t> left(std::uint32_t h) const {
    return std::span<const std::uint32_t>(counts_).subspan(
        demand_.first_pair(h), pairs(h).size());
  }
  [[nodiscard]] std::size_t num_hotspots() const noexcept {
    return demand_.num_hotspots();
  }
  /// Number of λ_hv pairs; a pair's position is SlotDemand::first_pair(h)
  /// plus its position in h's row.
  [[nodiscard]] std::size_t num_pairs() const noexcept {
    return counts_.size();
  }

 private:
  /// The pair's position in counts_, or counts_.size() when absent.
  [[nodiscard]] std::size_t find(std::uint32_t h, VideoId v) const;

  const SlotDemand& demand_;
  std::vector<std::uint32_t> counts_;
};

/// One (hotspot, video) pair's local demand, ranked for a cache fill.
struct FillEntry {
  std::uint32_t count = 0;
  std::uint32_t hotspot = 0;
  VideoId video = 0;
  std::uint32_t pair = 0;  // position in RemainingDemand's CSR order
};

/// Every pair with demand left, in fill order: count descending, then
/// hotspot and video ascending. A stable radix sort on the count: O(pairs)
/// per 8 bits of the largest count. Requires fewer than 2^32 pairs.
[[nodiscard]] std::vector<FillEntry> fill_order(
    const RemainingDemand& remaining);

/// Redirects per origin hotspot, logged in commit order.
class RedirectLog {
 public:
  explicit RedirectLog(std::size_t num_origins) : log_(num_origins) {}

  void add(std::uint32_t origin, VideoId video, std::uint32_t target,
           std::uint32_t amount) {
    log_[origin].push_back({video, target, amount});
  }

  /// Each origin's log grouped by video, ascending; a video's targets keep
  /// commit order. Empties the log.
  [[nodiscard]] std::vector<std::vector<VideoRedirect>> grouped();

 private:
  struct Entry {
    VideoId video = 0;
    std::uint32_t target = 0;
    std::uint32_t amount = 0;
  };
  std::vector<std::vector<Entry>> log_;
};

}  // namespace ccdn
