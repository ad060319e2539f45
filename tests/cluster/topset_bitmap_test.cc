// Differential tests for the word-parallel Gc pipeline: the TopsetBitmap
// Jaccard kernel and the bitmap Jd matrix build must be *bit-identical*
// to the scalar sorted-merge oracle, and the flattened hierarchical
// clustering must reproduce the seed algorithm's output exactly
// (reference_cluster.h).
#include "cluster/topset_bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
#include "cluster/reference_cluster.h"
#include "stats/correlation.h"
#include "util/rng.h"

namespace ccdn {
namespace {

/// Random sorted id set of the given size drawn from [0, universe).
std::vector<VideoId> random_set(Rng& rng, std::size_t size,
                                std::uint32_t universe) {
  std::vector<VideoId> ids;
  while (ids.size() < size) {
    const auto v = static_cast<VideoId>(rng.index(universe));
    if (std::find(ids.begin(), ids.end(), v) == ids.end()) ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(TopsetBitmap, EdgeCaseSetsMatchScalarExactly) {
  // Empty, identical, disjoint, singleton, subset, and an interleaved pair.
  const std::vector<std::vector<VideoId>> sets{
      {},          {},          {1, 2, 3}, {1, 2, 3},  {10, 20},
      {30, 40},    {7},         {7},       {5},        {1, 2, 3, 4, 5, 6},
      {2, 4, 6},   {1, 3, 5, 7}};
  const TopsetBitmap bitmap(sets);
  EXPECT_EQ(bitmap.num_sets(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = 0; j < sets.size(); ++j) {
      EXPECT_EQ(bitmap.jaccard(i, j), jaccard_similarity(sets[i], sets[j]))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(TopsetBitmap, RandomSetsMatchScalarExactly) {
  Rng rng(20240806);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::vector<VideoId>> sets;
    for (std::size_t i = 0; i < 60; ++i) {
      // Sizes 0..39 including plenty of empties and singletons; sparse ids
      // over a universe much larger than 64 to exercise multi-word rows.
      sets.push_back(random_set(rng, rng.index(40), 1000));
    }
    const TopsetBitmap bitmap(sets);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for (std::size_t j = i; j < sets.size(); ++j) {
        EXPECT_EQ(bitmap.jaccard(i, j), jaccard_similarity(sets[i], sets[j]))
            << "trial " << trial << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(TopsetBitmap, RejectsUnsortedAndDuplicateSets) {
  EXPECT_THROW(TopsetBitmap(std::vector<std::vector<VideoId>>{{3, 1, 2}}),
               PreconditionError);
  EXPECT_THROW(TopsetBitmap(std::vector<std::vector<VideoId>>{{1, 1, 2}}),
               PreconditionError);
}

TEST(ContentDistance, BitmapMatrixBitIdenticalToScalar) {
  Rng rng(77);
  std::vector<std::vector<VideoId>> sets;
  for (std::size_t i = 0; i < 80; ++i) {
    sets.push_back(random_set(rng, rng.index(30), 400));
  }
  const DistanceMatrix scalar =
      content_distance_matrix(sets, {.use_bitmap = false});
  const DistanceMatrix bitmap =
      content_distance_matrix(sets, {.use_bitmap = true});
  const auto a = scalar.condensed();
  const auto b = bitmap.condensed();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s], b[s]) << "condensed slot " << s;
  }
}

TEST(Hierarchical, FlattenedMatchesSeedClusteringExactly) {
  Rng rng(53);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 5 + rng.index(40);
    DistanceMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        m.set(i, j, rng.uniform(0.0, 1.0));
      }
    }
    for (const Linkage linkage : {Linkage::kSingle, Linkage::kComplete}) {
      for (const double threshold : {0.2, 0.5, 1.0}) {
        const auto seed = reference_cluster(m, linkage, threshold);
        const auto flat = hierarchical_cluster(m, linkage, threshold);
        EXPECT_EQ(flat.labels, seed.labels);
        EXPECT_EQ(flat.num_clusters, seed.num_clusters);
        ASSERT_EQ(flat.merges.size(), seed.merges.size());
        for (std::size_t s = 0; s < flat.merges.size(); ++s) {
          EXPECT_EQ(flat.merges[s].left, seed.merges[s].left);
          EXPECT_EQ(flat.merges[s].right, seed.merges[s].right);
          EXPECT_EQ(flat.merges[s].distance, seed.merges[s].distance);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccdn
