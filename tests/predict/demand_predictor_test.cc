#include "predict/demand_predictor.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace ccdn {
namespace {

SlotDemand demand_of(std::vector<std::vector<VideoDemand>> per_hotspot) {
  return SlotDemand(std::move(per_hotspot));
}

TEST(DemandPredictor, EmptyHistoryPredictsNothing) {
  LastValueForecaster naive;
  DemandPredictor predictor(2, naive);
  const auto predicted = predictor.predict();
  ASSERT_EQ(predicted.size(), 2u);
  EXPECT_TRUE(predicted[0].empty());
  EXPECT_TRUE(predicted[1].empty());
}

TEST(DemandPredictor, LastValueEchoesObservation) {
  LastValueForecaster naive;
  DemandPredictor predictor(2, naive);
  predictor.observe(demand_of({{{7, 4}, {9, 2}}, {{7, 1}}}));
  const auto predicted = predictor.predict();
  ASSERT_EQ(predicted[0].size(), 2u);
  EXPECT_EQ(predicted[0][0].video, 7u);
  EXPECT_EQ(predicted[0][0].count, 4u);
  EXPECT_EQ(predicted[1][0].video, 7u);
  EXPECT_EQ(predicted[1][0].count, 1u);
}

TEST(DemandPredictor, FadedVideoDropsOut) {
  LastValueForecaster naive;
  DemandPredictor predictor(1, naive);
  predictor.observe(demand_of({{{3, 5}}}));
  predictor.observe(demand_of({{}}));  // video 3 vanishes
  const auto predicted = predictor.predict();
  EXPECT_TRUE(predicted[0].empty());
}

TEST(DemandPredictor, MovingAverageSmoothsSpikes) {
  MovingAverageForecaster ma(2);
  DemandPredictor predictor(1, ma);
  predictor.observe(demand_of({{{1, 10}}}));
  predictor.observe(demand_of({{{1, 2}}}));
  const auto predicted = predictor.predict();
  ASSERT_EQ(predicted[0].size(), 1u);
  EXPECT_EQ(predicted[0][0].count, 6u);  // mean of 10 and 2
}

TEST(DemandPredictor, NewVideoAlignedWithZerosInHistory) {
  MovingAverageForecaster ma(4);
  DemandPredictor predictor(1, ma, /*history_window=*/4);
  predictor.observe(demand_of({{}}));
  predictor.observe(demand_of({{}}));
  predictor.observe(demand_of({{{5, 8}}}));  // first seen in slot 3
  const auto predicted = predictor.predict();
  ASSERT_EQ(predicted[0].size(), 1u);
  // History is [0, 0, 8] -> mean ~2.67 -> rounds to 3.
  EXPECT_EQ(predicted[0][0].count, 3u);
}

TEST(DemandPredictor, WindowBoundsHistory) {
  MovingAverageForecaster ma(10);
  DemandPredictor predictor(1, ma, /*history_window=*/2);
  predictor.observe(demand_of({{{1, 100}}}));
  predictor.observe(demand_of({{{1, 2}}}));
  predictor.observe(demand_of({{{1, 2}}}));
  const auto predicted = predictor.predict();
  // The 100 fell out of the window; only the 2s remain.
  EXPECT_EQ(predicted[0][0].count, 2u);
}

TEST(DemandPredictor, PredictForKeepsActualHomes) {
  LastValueForecaster naive;
  DemandPredictor predictor(2, naive);
  predictor.observe(demand_of({{{7, 3}}, {}}));
  const SlotDemand actual(
      std::vector<std::vector<VideoDemand>>{{{8, 1}}, {{8, 1}}},
      std::vector<HotspotIndex>{0, 1});
  const SlotDemand hybrid = predictor.predict_for(actual);
  // Demand comes from the prediction...
  const auto predicted = hybrid.video_demand(0);
  ASSERT_EQ(predicted.size(), 1u);
  EXPECT_EQ(predicted[0].video, 7u);
  EXPECT_EQ(predicted[0].count, 3u);
  // ...homes from the actual slot.
  ASSERT_EQ(hybrid.request_home().size(), 2u);
  EXPECT_EQ(hybrid.request_home()[0], 0u);
  EXPECT_EQ(hybrid.request_home()[1], 1u);
}

TEST(DemandPredictor, RejectsMismatchedHotspotCount) {
  LastValueForecaster naive;
  DemandPredictor predictor(2, naive);
  EXPECT_THROW(predictor.observe(demand_of({{}})), PreconditionError);
  EXPECT_THROW(DemandPredictor(1, naive, 0), PreconditionError);
}

TEST(DemandPredictor, SlotsObservedCounts) {
  LastValueForecaster naive;
  DemandPredictor predictor(1, naive);
  EXPECT_EQ(predictor.slots_observed(), 0u);
  predictor.observe(demand_of({{}}));
  predictor.observe(demand_of({{}}));
  EXPECT_EQ(predictor.slots_observed(), 2u);
}

}  // namespace
}  // namespace ccdn
