// Predictive scheduling pipeline.
//
// The plain Simulator plans each slot against its *observed* demand — an
// oracle. In deployment the scheduling server must prefetch before the slot
// starts, planning against *forecast* demand (paper §III assumption 4).
// run_predictive() runs the Simulator with the scheme wrapped so that it
// plans slot t on the predictor's output; admission is against the actual
// requests, and the observation is fed back into the predictor. The gap to
// the oracle quantifies the price of prediction error.
#pragma once

#include <span>

#include "core/scheme.h"
#include "predict/demand_predictor.h"
#include "sim/simulator.h"

namespace ccdn {

struct PredictiveConfig {
  /// Every field applies as in Simulator::run, except that the wrapped
  /// scheme always plans slot by slot (num_threads cannot fan it out).
  SimulationConfig simulation;
  /// Initial slots planned against observed demand while history builds up
  /// (an operator would bootstrap from yesterday's trace).
  std::size_t warmup_slots = 1;
  /// Slots of per-video history the predictor retains.
  std::size_t history_window = 24;
};

/// Run `scheme` over the trace through Simulator::run, planning each
/// post-warmup slot against the forecaster's demand prediction instead of
/// the observed demand.
[[nodiscard]] SimulationReport run_predictive(
    const std::vector<Hotspot>& hotspots, VideoCatalog catalog,
    RedirectionScheme& scheme, const Forecaster& forecaster,
    std::span<const Request> requests, const PredictiveConfig& config = {});

}  // namespace ccdn
