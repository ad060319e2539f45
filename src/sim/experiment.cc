#include "sim/experiment.h"

#include <ostream>

#include "util/csv.h"
#include "util/error.h"

namespace ccdn {

SweepPoint run_single(const World& world, std::span<const Request> requests,
                      const NamedSchemeFactory& scheme,
                      double service_fraction, double cache_fraction,
                      const SimulationConfig& simulation) {
  World configured = world;  // cheap relative to a simulation run
  assign_uniform_capacities(configured, service_fraction, cache_fraction);
  Simulator simulator(configured.hotspots(),
                      VideoCatalog{configured.config().num_videos},
                      simulation);
  const SchemePtr instance = scheme.make();
  CCDN_REQUIRE(instance != nullptr, "scheme factory returned null");
  const SimulationReport report = simulator.run(*instance, requests);

  SweepPoint point;
  point.scheme = scheme.label.empty() ? instance->name() : scheme.label;
  point.serving_ratio = report.serving_ratio();
  point.average_distance_km = report.average_distance_km();
  point.replication_cost = report.replication_cost();
  point.cdn_server_load = report.cdn_server_load();
  return point;
}

namespace {

std::vector<SweepPoint> run_sweep(const World& world,
                                  std::span<const Request> requests,
                                  const std::vector<NamedSchemeFactory>& schemes,
                                  const SweepConfig& config,
                                  bool sweep_is_capacity) {
  CCDN_REQUIRE(!config.swept_fractions.empty(), "empty sweep");
  CCDN_REQUIRE(config.fixed_fraction > 0.0, "fixed fraction must be positive");
  std::vector<SweepPoint> points;
  points.reserve(config.swept_fractions.size() * schemes.size());
  for (const double fraction : config.swept_fractions) {
    for (const auto& scheme : schemes) {
      const double service =
          sweep_is_capacity ? fraction : config.fixed_fraction;
      const double cache = sweep_is_capacity ? config.fixed_fraction : fraction;
      SweepPoint point = run_single(world, requests, scheme, service, cache,
                                    config.simulation);
      point.parameter = fraction;
      points.push_back(std::move(point));
    }
  }
  return points;
}

}  // namespace

std::vector<SweepPoint> run_capacity_sweep(
    const World& world, std::span<const Request> requests,
    const std::vector<NamedSchemeFactory>& schemes, const SweepConfig& config) {
  return run_sweep(world, requests, schemes, config, /*sweep_is_capacity=*/true);
}

std::vector<SweepPoint> run_cache_sweep(
    const World& world, std::span<const Request> requests,
    const std::vector<NamedSchemeFactory>& schemes, const SweepConfig& config) {
  return run_sweep(world, requests, schemes, config,
                   /*sweep_is_capacity=*/false);
}

void write_sweep_csv(std::ostream& out,
                     const std::vector<SweepPoint>& points) {
  CsvWriter writer(out);
  writer.row("parameter", "scheme", "serving_ratio", "avg_distance_km",
             "replication_cost", "cdn_server_load");
  for (const auto& p : points) {
    writer.row(p.parameter, p.scheme, p.serving_ratio, p.average_distance_km,
               p.replication_cost, p.cdn_server_load);
  }
}

}  // namespace ccdn
