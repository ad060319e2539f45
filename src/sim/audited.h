// Audited replay (DESIGN.md §3.8).
//
// run_audited() runs the Simulator with the scheme wrapped so that every
// slot plan is checked against the plan contracts as soon as plan_slot
// returns it, before admission. The checks run in every build, NDEBUG
// included, and a violation is recorded in the slot's verdict instead of
// thrown, so one run reports every broken slot.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheme.h"
#include "sim/simulator.h"
#include "trace/slot_source.h"
#include "verify/audit.h"

namespace ccdn {

/// The audit of one slot's plan.
struct SlotVerdict {
  std::size_t requests = 0;
  /// plan_digest() of the plan.
  std::uint64_t digest = 0;
  /// Every contract the plan breaks; ok() when it is clean.
  AuditReport audit;
};

struct AuditedRun {
  SimulationReport report;
  /// One verdict per slot, in slot order.
  std::vector<SlotVerdict> verdicts;
};

/// Run `scheme` over `source` through simulator.run(), auditing each plan
/// with audit_assignment and audit_placements, and with audit_capacity
/// when `capacity_tier` is set (for schemes that promise capacity
/// feasibility: the RBCAer family). The wrapped scheme has no clone(), so
/// the simulator plans one slot at a time on its pulling thread with one
/// batch resident, whatever its thread count.
[[nodiscard]] AuditedRun run_audited(const Simulator& simulator,
                                     RedirectionScheme& scheme,
                                     SlotSource& source, bool capacity_tier);

}  // namespace ccdn
