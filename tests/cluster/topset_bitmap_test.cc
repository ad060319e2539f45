// Differential tests for the word-parallel Gc pipeline: the TopsetBitmap
// Jaccard kernel and the bitmap Jd matrix build must be *bit-identical*
// to the scalar sorted-merge oracle, and the flattened hierarchical
// clustering must reproduce the seed algorithm's output exactly.
#include "cluster/topset_bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
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

/// The seed (pre-flattening) agglomerative clustering, kept verbatim as the
/// differential oracle for the condensed-buffer rewrite.
ClusteringResult reference_cluster(const DistanceMatrix& distances,
                                   Linkage linkage, double threshold) {
  const std::size_t n = distances.size();
  ClusteringResult result;
  if (n == 0) return result;

  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      dist[i][j] = dist[j][i] = distances.at(i, j);
    }
  }
  const auto merged_distance = [](Linkage kind, double d_ak, double d_bk,
                                  std::size_t size_a, std::size_t size_b) {
    switch (kind) {
      case Linkage::kSingle:
        return std::min(d_ak, d_bk);
      case Linkage::kComplete:
        return std::max(d_ak, d_bk);
      case Linkage::kAverage: {
        const double wa = static_cast<double>(size_a);
        const double wb = static_cast<double>(size_b);
        return (wa * d_ak + wb * d_bk) / (wa + wb);
      }
    }
    return std::max(d_ak, d_bk);
  };

  std::vector<bool> active(n, true);
  std::vector<std::size_t> cluster_size(n, 1);
  std::vector<std::uint32_t> node_id(n);
  std::iota(node_id.begin(), node_id.end(), 0u);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> nn(n, 0);
  std::vector<double> nn_dist(n, kInf);
  const auto recompute_nn = [&](std::size_t i) {
    nn_dist[i] = kInf;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || !active[j]) continue;
      if (dist[i][j] < nn_dist[i]) {
        nn_dist[i] = dist[i][j];
        nn[i] = j;
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) recompute_nn(i);

  std::size_t active_count = n;
  std::uint32_t next_node = static_cast<std::uint32_t>(n);
  while (active_count > 1) {
    std::size_t best_i = n;
    double best = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] && nn_dist[i] < best) {
        best = nn_dist[i];
        best_i = i;
      }
    }
    if (best_i == n || best > threshold) break;
    const std::size_t a = best_i;
    const std::size_t b = nn[a];
    result.merges.push_back({node_id[a], node_id[b], best});
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == a || k == b) continue;
      const double d = merged_distance(linkage, dist[a][k], dist[b][k],
                                       cluster_size[a], cluster_size[b]);
      dist[a][k] = dist[k][a] = d;
    }
    active[b] = false;
    cluster_size[a] += cluster_size[b];
    node_id[a] = next_node++;
    --active_count;
    recompute_nn(a);
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == a) continue;
      if (nn[k] == a || nn[k] == b) {
        recompute_nn(k);
      } else if (dist[k][a] < nn_dist[k]) {
        nn[k] = a;
        nn_dist[k] = dist[k][a];
      }
    }
  }

  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) -> std::uint32_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::uint32_t> rep(n + result.merges.size());
  std::iota(rep.begin(), rep.begin() + static_cast<std::ptrdiff_t>(n), 0u);
  for (std::size_t s = 0; s < result.merges.size(); ++s) {
    const auto& merge = result.merges[s];
    const std::uint32_t ra = find(rep[merge.left]);
    const std::uint32_t rb = find(rep[merge.right]);
    parent[rb] = ra;
    rep[n + s] = ra;
  }
  result.labels.assign(n, 0);
  std::vector<std::int64_t> label_of_root(n, -1);
  std::uint32_t next_label = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t root = find(static_cast<std::uint32_t>(i));
    if (label_of_root[root] < 0) label_of_root[root] = next_label++;
    result.labels[i] = static_cast<std::uint32_t>(label_of_root[root]);
  }
  result.num_clusters = next_label;
  return result;
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
    for (const Linkage linkage :
         {Linkage::kSingle, Linkage::kComplete, Linkage::kAverage}) {
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
