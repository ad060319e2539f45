#include "trace/world.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/error.h"

namespace ccdn {
namespace {

TEST(World, DeterministicInSeed) {
  const World a = generate_world(WorldConfig::evaluation_region());
  const World b = generate_world(WorldConfig::evaluation_region());
  ASSERT_EQ(a.hotspots().size(), b.hotspots().size());
  for (std::size_t h = 0; h < a.hotspots().size(); ++h) {
    EXPECT_EQ(a.hotspots()[h].location, b.hotspots()[h].location);
  }
  ASSERT_EQ(a.zones().size(), b.zones().size());
  EXPECT_EQ(a.video_genres(), b.video_genres());
}

TEST(World, DifferentSeedsDiffer) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.seed = 1;
  const World a = generate_world(config);
  config.seed = 2;
  const World b = generate_world(config);
  bool any_different = false;
  for (std::size_t h = 0; h < a.hotspots().size(); ++h) {
    if (a.hotspots()[h].location != b.hotspots()[h].location) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(World, HotspotsInsideRegion) {
  const World world = generate_world(WorldConfig::evaluation_region());
  for (const auto& hotspot : world.hotspots()) {
    EXPECT_TRUE(world.config().region.contains(hotspot.location));
  }
}

TEST(World, MatchesPaperEvaluationScale) {
  const WorldConfig config = WorldConfig::evaluation_region();
  EXPECT_EQ(config.num_hotspots, 310u);
  EXPECT_EQ(config.num_videos, 15190u);
  EXPECT_NEAR(config.region.width_km(), 17.0, 0.5);
  EXPECT_NEAR(config.region.height_km(), 11.0, 0.5);
  const World world = generate_world(config);
  EXPECT_EQ(world.hotspots().size(), 310u);
  EXPECT_EQ(world.video_genres().size(), 15190u);
}

TEST(World, ZipfExponentCalibratedTo8020) {
  const World world = generate_world(WorldConfig::evaluation_region());
  // For a 15K-video catalog the 80/20 exponent is close to 1.
  EXPECT_GT(world.zipf_exponent(), 0.8);
  EXPECT_LT(world.zipf_exponent(), 1.3);
}

TEST(World, GenresWithinRange) {
  const World world = generate_world(WorldConfig::evaluation_region());
  for (const auto genre : world.video_genres()) {
    EXPECT_LT(genre, world.config().num_genres);
  }
}

TEST(World, ZonesHavePositiveWeightAndSpread) {
  const World world = generate_world(WorldConfig::evaluation_region());
  EXPECT_EQ(world.zones().size(), world.config().num_zones);
  for (const auto& zone : world.zones()) {
    EXPECT_GT(zone.weight, 0.0);
    EXPECT_GT(zone.sigma_km, 0.0);
    EXPECT_TRUE(world.config().region.contains(zone.center));
  }
}

TEST(World, AssignUniformCapacities) {
  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  // 5% of 15190 = 759.5 -> 760; 3% -> 456 (the paper rounds to 450/760).
  for (const auto& hotspot : world.hotspots()) {
    EXPECT_EQ(hotspot.service_capacity, 760u);
    EXPECT_EQ(hotspot.cache_capacity, 456u);
  }
}

TEST(World, AssignCapacitiesRejectsNonPositive) {
  World world = generate_world(WorldConfig::evaluation_region());
  EXPECT_THROW(assign_uniform_capacities(world, 0.0, 0.03),
               PreconditionError);
  EXPECT_THROW(assign_uniform_capacities(world, 0.05, -1.0),
               PreconditionError);
}

TEST(World, CityScaleConfigIsLarger) {
  const WorldConfig city = WorldConfig::city_scale();
  EXPECT_EQ(city.num_hotspots, 5000u);
  EXPECT_GT(city.region.width_km(), 30.0);
  EXPECT_GT(city.num_videos, WorldConfig::evaluation_region().num_videos);
}

TEST(World, RejectsDegenerateConfigs) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 0;
  EXPECT_THROW((void)generate_world(config), PreconditionError);
  config = WorldConfig::evaluation_region();
  config.num_videos = 1;
  EXPECT_THROW((void)generate_world(config), PreconditionError);
  config = WorldConfig::evaluation_region();
  config.hotspot_background_fraction = 1.5;
  EXPECT_THROW((void)generate_world(config), PreconditionError);
}

TEST(DiurnalProfiles, ShapeSanity) {
  const auto& residential = diurnal_profile(ZoneType::kResidential);
  const auto& business = diurnal_profile(ZoneType::kBusiness);
  // Residential peaks in the evening, business during office hours.
  EXPECT_GT(residential[20], residential[10]);
  EXPECT_GT(business[10], business[20]);
  for (const double v : residential) EXPECT_GT(v, 0.0);
  for (const double v : business) EXPECT_GT(v, 0.0);
}

}  // namespace
}  // namespace ccdn
