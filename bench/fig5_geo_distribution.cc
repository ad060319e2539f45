// Fig. 5 — Geo-distribution of video requests and content hotspots in the
// evaluation region (paper §V-A: a 17 x 11 km rectangle with 212,472
// requests, 15,190 videos, 310 hotspots).
//
// Prints the instance summary and an ASCII density map (request density as
// digits, hotspot count overlaid) — the textual analogue of the scatter
// plot. `--csv=<path>` additionally dumps the raw points for plotting.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "geo/grid_index.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/csv.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ccdn;
  std::string csv_path;
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        csv_path = flags.get_string("csv", "");
      })) {
    return 2;
  }
  const WorldConfig world_config = WorldConfig::evaluation_region();
  const World world = generate_world(world_config);
  TraceConfig trace_config;  // defaults to the paper's 212,472 requests
  const auto trace = generate_trace(world, trace_config);

  std::printf("=== Fig. 5: geo-distribution of requests and hotspots ===\n");
  std::printf("region: %.1f x %.1f km; %zu hotspots, %zu requests, %u videos\n",
              world_config.region.width_km(), world_config.region.height_km(),
              world.hotspots().size(), trace.size(),
              world_config.num_videos);
  std::printf("paper reference: 17 x 11 km, 310 hotspots, 212,472 requests, "
              "15,190 videos\n\n");

  // Coarse density map: 48 x 16 cells.
  constexpr int kCols = 48;
  constexpr int kRows = 16;
  std::vector<std::size_t> request_density(kCols * kRows, 0);
  std::vector<std::size_t> hotspot_density(kCols * kRows, 0);
  const auto& region = world_config.region;
  const auto cell_of = [&](const GeoPoint& p) {
    const int col = std::min(
        kCols - 1, static_cast<int>((p.lon - region.min.lon) /
                                    (region.max.lon - region.min.lon) *
                                    kCols));
    const int row = std::min(
        kRows - 1, static_cast<int>((p.lat - region.min.lat) /
                                    (region.max.lat - region.min.lat) *
                                    kRows));
    return (kRows - 1 - row) * kCols + col;  // north at the top
  };
  for (const auto& r : trace) ++request_density[cell_of(r.location)];
  for (const auto& h : world.hotspots()) ++hotspot_density[cell_of(h.location)];

  const std::size_t peak =
      *std::max_element(request_density.begin(), request_density.end());
  std::printf("request density (0-9 ~ share of peak cell %zu); '*' marks "
              "cells with >= 3 hotspots, '+' with >= 1\n\n",
              peak);
  for (int row = 0; row < kRows; ++row) {
    for (int col = 0; col < kCols; ++col) {
      const std::size_t requests = request_density[row * kCols + col];
      const std::size_t hotspots = hotspot_density[row * kCols + col];
      if (hotspots >= 3) {
        std::putchar('*');
      } else if (hotspots >= 1) {
        std::putchar('+');
      } else if (requests == 0) {
        std::putchar('.');
      } else {
        const int digit = static_cast<int>(
            9.0 * static_cast<double>(requests) / static_cast<double>(peak));
        std::putchar(static_cast<char>('0' + std::min(9, digit)));
      }
    }
    std::putchar('\n');
  }

  // Quantify co-location: share of requests within 0.5 km of a hotspot.
  const GridIndex index(world.hotspot_locations(), 0.5);
  std::size_t close = 0;
  for (const auto& r : trace) {
    const auto nearest = index.nearest(r.location);
    if (distance_km(r.location, index.point(nearest)) <= 0.5) ++close;
  }
  std::printf("\nrequests within 0.5 km of some hotspot: %.1f%%\n",
              100.0 * static_cast<double>(close) /
                  static_cast<double>(trace.size()));

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    CsvWriter writer(out);
    writer.row("kind", "lat", "lon");
    for (const auto& h : world.hotspots()) {
      writer.row("hotspot", h.location.lat, h.location.lon);
    }
    // Subsample requests to keep the file plottable.
    for (std::size_t i = 0; i < trace.size(); i += 20) {
      writer.row("request", trace[i].location.lat, trace[i].location.lon);
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}
