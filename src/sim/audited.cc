#include "sim/audited.h"

#include <string>
#include <utility>

#include "verify/schedule_audit.h"

namespace ccdn {

namespace {

/// Audits each plan the inner scheme returns and keeps the verdicts. The
/// verdict list follows planning order, so clone() stays nullptr and the
/// simulator plans slot by slot.
class AuditingScheme final : public RedirectionScheme {
 public:
  AuditingScheme(RedirectionScheme& inner, bool capacity_tier)
      : inner_(inner), capacity_tier_(capacity_tier) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override {
    SlotPlan plan = inner_.plan_slot(context, requests, demand);
    SlotVerdict& verdict = verdicts_.emplace_back();
    verdict.requests = requests.size();
    verdict.digest = plan_digest(plan);
    audit_assignment(plan.assignment, requests.size(),
                     context.hotspots.size(), verdict.audit);
    audit_placements(plan.placements, context.hotspots, verdict.audit);
    if (capacity_tier_) {
      audit_capacity(plan.assignment, plan.placements, context.hotspots,
                     requests, demand.request_home(), verdict.audit);
    }
    return plan;
  }

  [[nodiscard]] const StageTimings* last_stage_timings() const override {
    return inner_.last_stage_timings();
  }

  [[nodiscard]] std::vector<SlotVerdict> take_verdicts() {
    return std::move(verdicts_);
  }

 private:
  RedirectionScheme& inner_;
  bool capacity_tier_;
  std::vector<SlotVerdict> verdicts_;
};

}  // namespace

AuditedRun run_audited(const Simulator& simulator, RedirectionScheme& scheme,
                       SlotSource& source, bool capacity_tier) {
  AuditingScheme auditing(scheme, capacity_tier);
  SimulationReport report = simulator.run(auditing, source);
  return {std::move(report), auditing.take_verdicts()};
}

}  // namespace ccdn
