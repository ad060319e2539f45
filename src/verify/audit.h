// Invariant-audit vocabulary shared by the flow and schedule auditors.
//
// An audit walks an already-computed artifact (a solved FlowNetwork, a
// SlotPlan, a ReplicationResult) and records every violated invariant into
// an AuditReport instead of throwing at the first one, so negative-path
// tests can assert exactly which invariant broke and production call sites
// can escalate the whole report at once via require_clean().
//
// The audit *functions* are ordinary code, available in every build. The
// simulator calls the plan audits in every build whenever its AuditLevel
// is on, and records each slot's result as a SlotVerdict instead of
// throwing (`ccdn-trace audit` prints them, even from release binaries).
// The call sites inside the schemes and the θ step are gated on their
// AuditLevel and compiled out under NDEBUG through kCheckedBuild, so a
// release build pays nothing there — see DESIGN.md §3.8.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace ccdn {

/// How much auditing the scheduling pipeline performs per slot.
enum class AuditLevel : std::uint8_t {
  /// No auditing (production default; zero overhead).
  kOff = 0,
  /// Audit each slot's finished plan (assignment totality, cache and
  /// capacity feasibility, replication budget); the simulator records a
  /// digested verdict per slot.
  kPlan = 1,
  /// kPlan plus flow-level audits on every committed network: conservation,
  /// capacity bounds, and residual reduced-cost validity at each θ-sweep
  /// commit. Expensive; meant for tests, `ccdn-trace audit`, and bug hunts.
  kFull = 2,
};

/// One violated invariant.
struct AuditViolation {
  /// Stable machine-readable name, e.g. "flow-conservation".
  std::string invariant;
  /// Human-readable context: which node/hotspot/edge, observed vs bound.
  std::string detail;
};

/// Accumulates violations across the audit functions applied to one artifact.
class AuditReport {
 public:
  void add(std::string invariant, std::string detail) {
    violations_.push_back({std::move(invariant), std::move(detail)});
  }

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const noexcept {
    return violations_;
  }

  /// True when some recorded violation names `invariant` exactly.
  [[nodiscard]] bool has(const std::string& invariant) const noexcept {
    for (const auto& v : violations_) {
      if (v.invariant == invariant) return true;
    }
    return false;
  }

  /// One line per violation ("[invariant] detail"); empty string when ok.
  [[nodiscard]] std::string summary() const {
    std::string out;
    for (const auto& v : violations_) {
      if (!out.empty()) out += "; ";
      out += "[" + v.invariant + "] " + v.detail;
    }
    return out;
  }

  /// Throw InvariantError listing every violation unless the report is
  /// clean. `context` names the audited artifact ("theta-sweep commit",
  /// "rbcaer slot plan", ...).
  void require_clean(const char* context) const {
    CCDN_ENSURE(ok(), std::string("audit failed (") + context + "): " +
                          summary());
  }

 private:
  std::vector<AuditViolation> violations_;
};

}  // namespace ccdn
