// Schedule-side invariant audits: the per-slot guarantees of problem (U)
// that a finished SlotPlan / ReplicationResult must satisfy, plus the FNV
// digest that turns thread-determinism into a one-line cross-check.
//
// Two tiers of checks, because not every scheme promises the same:
//  - audit_assignment / audit_placements hold for EVERY scheme (the
//    simulator's admission contract): the assignment is total and in range,
//    placements are sorted, unique, and within cache capacity c_h.
//  - audit_capacity / audit_replication hold for schemes that plan under
//    the paper's constraints (RBCAer flat and virtual): a request moved
//    away from its home hotspot lands where its video is placed, inbound
//    redirections never push a hotspot past its service capacity s_h, and
//    replicas stay within the B_peak budget. Baselines (Nearest, Random)
//    over-assign by design and are audited at the first tier only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/replication.h"
#include "core/scheme.h"
#include "model/types.h"
#include "verify/audit.h"

namespace ccdn {

/// Deterministic FNV-1a (64-bit) digest of a slot's decision pair: the
/// per-request assignment and the per-hotspot placements. Equal plans hash
/// equal on every platform and thread count, so comparing digests across
/// runs IS the determinism check.
[[nodiscard]] std::uint64_t plan_digest(
    std::span<const HotspotIndex> assignment,
    const std::vector<std::vector<VideoId>>& placements);

[[nodiscard]] inline std::uint64_t plan_digest(const SlotPlan& plan) {
  return plan_digest(plan.assignment, plan.placements);
}

/// Assignment totality: one entry per request ("assignment-size"), each
/// either kCdnServer or a valid hotspot index ("assignment-range").
void audit_assignment(std::span<const HotspotIndex> assignment,
                      std::size_t num_requests, std::size_t num_hotspots,
                      AuditReport& report);

/// Placement shape: one list per hotspot ("placement-count"), strictly
/// ascending video ids ("placement-order"), and at most c_h entries
/// ("cache-capacity").
void audit_placements(const std::vector<std::vector<VideoId>>& placements,
                      std::span<const Hotspot> hotspots, AuditReport& report);

/// Redirect feasibility and service capacity for plans that promise them:
///  - every request assigned away from home targets a hotspot that has its
///    video placed ("redirect-miss"),
///  - per hotspot j, inbound redirected requests fit in the service
///    capacity left after j's own servable home demand:
///    inbound(j) <= max(0, s_j - home_servable(j)) ("service-capacity").
/// `homes` is the per-request home hotspot (SlotDemand::request_home).
void audit_capacity(std::span<const HotspotIndex> assignment,
                    const std::vector<std::vector<VideoId>>& placements,
                    std::span<const Hotspot> hotspots,
                    std::span<const Request> requests,
                    std::span<const HotspotIndex> homes, AuditReport& report);

/// Total service-capacity invariant for schemes that place every request
/// directly (the LP rounding, which decides x_ij for home and non-home
/// targets alike — there is no privileged "home demand" admission can be
/// assumed to cover):
///  - per hotspot j, the TOTAL number of requests assigned to j fits in
///    s_j ("total-capacity"),
///  - every assigned request's video is placed at its target
///    ("assignment-miss").
/// Stricter than audit_capacity, which only bounds inbound redirects
/// against the residual after servable home demand and tolerates
/// over-assigned homes.
void audit_total_capacity(std::span<const HotspotIndex> assignment,
                          const std::vector<std::vector<VideoId>>& placements,
                          std::span<const Hotspot> hotspots,
                          std::span<const Request> requests,
                          AuditReport& report);

/// Procedure 1 output contracts:
///  - replicas == total placements and both within `replica_budget`
///    ("replica-count" / "replication-budget"),
///  - placements well-formed and within caches (see audit_placements),
///  - every redirect target is in range, carries a positive amount, and has
///    the video placed ("redirect-target" / "redirect-miss"),
///  - total_redirected equals the sum over all redirect targets
///    ("redirect-total").
void audit_replication(const ReplicationResult& result,
                       std::span<const Hotspot> hotspots,
                       std::size_t replica_budget, AuditReport& report);

/// Full kPlan audit of a finished RBCAer-family slot plan: assignment
/// totality, placement shape, and capacity feasibility in one call.
void audit_slot_plan(const SlotPlan& plan, std::span<const Hotspot> hotspots,
                     std::span<const Request> requests,
                     std::span<const HotspotIndex> homes, AuditReport& report);

}  // namespace ccdn
