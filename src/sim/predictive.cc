#include "sim/predictive.h"

#include <string>
#include <utility>

namespace ccdn {

namespace {

/// Plans each slot on the predictor's forecast of its demand, with the
/// slot's actual request homes, once `warmup_slots` slots have been
/// observed; then observes the slot's actual demand. That history makes
/// planning order part of its semantics, so clone() stays nullptr and the
/// simulator plans it slot by slot.
class PredictiveScheme final : public RedirectionScheme {
 public:
  PredictiveScheme(RedirectionScheme& inner, DemandPredictor predictor,
                   std::size_t warmup_slots)
      : inner_(inner),
        predictor_(std::move(predictor)),
        warmup_slots_(warmup_slots) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override {
    const bool warm = predictor_.slots_observed() >= warmup_slots_;
    SlotPlan plan =
        warm ? inner_.plan_slot(context, requests,
                                predictor_.predict_for(demand))
             : inner_.plan_slot(context, requests, demand);
    predictor_.observe(demand);
    return plan;
  }

  [[nodiscard]] const StageTimings* last_stage_timings() const override {
    return inner_.last_stage_timings();
  }

 private:
  RedirectionScheme& inner_;
  DemandPredictor predictor_;
  std::size_t warmup_slots_;
};

}  // namespace

SimulationReport run_predictive(const std::vector<Hotspot>& hotspots,
                                VideoCatalog catalog,
                                RedirectionScheme& scheme,
                                const Forecaster& forecaster,
                                std::span<const Request> requests,
                                const PredictiveConfig& config) {
  const Simulator simulator(hotspots, catalog, config.simulation);
  PredictiveScheme predictive(
      scheme,
      DemandPredictor(hotspots.size(), forecaster, config.history_window),
      config.warmup_slots);
  return simulator.run(predictive, requests);
}

}  // namespace ccdn
