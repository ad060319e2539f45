#include "cluster/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cluster/reference_cluster.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

TEST(DistanceMatrix, StoresSymmetric) {
  DistanceMatrix m(4);
  m.set(0, 3, 0.7);
  m.set(2, 1, 0.2);
  EXPECT_DOUBLE_EQ(m.at(0, 3), 0.7);
  EXPECT_DOUBLE_EQ(m.at(3, 0), 0.7);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.2);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(DistanceMatrix, RejectsBadAccess) {
  DistanceMatrix m(3);
  // The index check is CCDN_ASSERT (debug-only): it sits on every read in
  // the clustering inner loop, so release builds compile it out.
  if (kCheckedBuild) {
    EXPECT_THROW(m.set(0, 3, 0.1), PreconditionError);
    EXPECT_THROW(m.set(1, 1, 0.1), PreconditionError);
  }
  EXPECT_THROW(m.set(0, 1, -0.1), PreconditionError);
}

TEST(DistanceMatrix, CondensedLayoutIsRowMajorUpperTriangle) {
  DistanceMatrix m(4);
  double next = 0.1;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      m.set(i, j, next);
      next += 0.1;
    }
  }
  const auto data = m.condensed();
  ASSERT_EQ(data.size(), 6u);  // 4*3/2
  std::size_t slot = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(data[slot++], m.at(i, j));
    }
  }
}

DistanceMatrix two_blobs() {
  // Items 0-2 close together, 3-5 close together, blobs far apart.
  DistanceMatrix m(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      const bool same = (i < 3) == (j < 3);
      m.set(i, j, same ? 0.1 : 0.9);
    }
  }
  return m;
}

TEST(Hierarchical, TwoBlobsSeparate) {
  const auto result =
      hierarchical_cluster(two_blobs(), Linkage::kComplete, 0.5);
  EXPECT_EQ(result.num_clusters, 2u);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[0], result.labels[2]);
  EXPECT_EQ(result.labels[3], result.labels[4]);
  EXPECT_NE(result.labels[0], result.labels[3]);
}

TEST(Hierarchical, ThresholdZeroKeepsSingletons) {
  const auto result =
      hierarchical_cluster(two_blobs(), Linkage::kComplete, 0.0);
  EXPECT_EQ(result.num_clusters, 6u);
}

TEST(Hierarchical, HighThresholdMergesAll) {
  const auto result =
      hierarchical_cluster(two_blobs(), Linkage::kComplete, 1.0);
  EXPECT_EQ(result.num_clusters, 1u);
  EXPECT_EQ(result.merges.size(), 5u);
}

TEST(Hierarchical, EmptyAndSingleton) {
  const auto empty =
      hierarchical_cluster(DistanceMatrix(0), Linkage::kComplete, 0.5);
  EXPECT_EQ(empty.num_clusters, 0u);
  const auto one =
      hierarchical_cluster(DistanceMatrix(1), Linkage::kComplete, 0.5);
  EXPECT_EQ(one.num_clusters, 1u);
  EXPECT_EQ(one.labels, (std::vector<std::uint32_t>{0}));
}

TEST(Hierarchical, SingleLinkageChains) {
  // A chain 0-1-2-3 with neighbour distance 0.3 but end-to-end 0.9:
  // single linkage merges the whole chain at 0.3; complete linkage stops.
  DistanceMatrix m(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      m.set(i, j, j - i == 1 ? 0.3 : 0.9);
    }
  }
  const auto single = hierarchical_cluster(m, Linkage::kSingle, 0.5);
  EXPECT_EQ(single.num_clusters, 1u);
  const auto complete = hierarchical_cluster(m, Linkage::kComplete, 0.5);
  EXPECT_GT(complete.num_clusters, 1u);
}

TEST(Hierarchical, CompleteLinkageDiameterGuarantee) {
  // Property: with complete linkage, every intra-cluster pair distance is
  // <= threshold (the paper's Jd <= 0.5 rule).
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 20;
    DistanceMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        m.set(i, j, rng.uniform(0.0, 1.0));
      }
    }
    const double threshold = 0.5;
    const auto result = hierarchical_cluster(m, Linkage::kComplete, threshold);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (result.labels[i] == result.labels[j]) {
          EXPECT_LE(m.at(i, j), threshold)
              << "trial " << trial << " pair " << i << "," << j;
        }
      }
    }
  }
}

TEST(Hierarchical, SingleLinkageNoMoreClustersThanComplete) {
  Rng rng(37);
  const std::size_t n = 15;
  DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, rng.uniform(0.0, 1.0));
    }
  }
  const auto single = hierarchical_cluster(m, Linkage::kSingle, 0.4);
  const auto complete = hierarchical_cluster(m, Linkage::kComplete, 0.4);
  EXPECT_LE(single.num_clusters, complete.num_clusters);
}

TEST(Hierarchical, LabelsAreDense) {
  Rng rng(41);
  const std::size_t n = 25;
  DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, rng.uniform(0.0, 1.0));
    }
  }
  const auto result = hierarchical_cluster(m, Linkage::kComplete, 0.3);
  std::set<std::uint32_t> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), result.num_clusters);
  EXPECT_EQ(*labels.begin(), 0u);
  EXPECT_EQ(*labels.rbegin(), result.num_clusters - 1);
}

TEST(Hierarchical, MergeDistancesNonDecreasingForCompleteLinkage) {
  Rng rng(43);
  const std::size_t n = 12;
  DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, rng.uniform(0.0, 1.0));
    }
  }
  const auto result = hierarchical_cluster(m, Linkage::kComplete, 1.0);
  for (std::size_t s = 1; s < result.merges.size(); ++s) {
    EXPECT_GE(result.merges[s].distance + 1e-12,
              result.merges[s - 1].distance);
  }
}

/// n items with distances quantized to `levels` values in [0, 1], so most
/// pairs tie with many others.
DistanceMatrix tied_matrix(Rng& rng, std::size_t n, std::size_t levels) {
  DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j,
            static_cast<double>(rng.index(levels)) /
                static_cast<double>(levels - 1));
    }
  }
  return m;
}

DistanceMatrix uniform_matrix(Rng& rng, std::size_t n) {
  DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) m.set(i, j, rng.uniform(0.0, 1.0));
  }
  return m;
}

TEST(HierarchicalCutGraph, MatchesReferenceTieForTie) {
  // The tie rules decide almost every merge on these matrices: 2 to 11
  // distance levels over up to 60 items. The graph is cut at the threshold,
  // and also at 1 (every pair), where rows hold entries the loop must never
  // merge on.
  Rng rng(2026);
  std::size_t cases = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t n = 2 + rng.index(59);
    const std::size_t levels = 2 + rng.index(10);
    const DistanceMatrix m = tied_matrix(rng, n, levels);
    const CutGraph full = cut_graph(m, 1.0);
    for (const Linkage linkage : {Linkage::kSingle, Linkage::kComplete}) {
      for (const double threshold : {0.0, 0.25, 0.5, 0.6, 1.0}) {
        const ClusteringResult want = reference_cluster(m, linkage, threshold);
        const CutGraph graph = cut_graph(m, threshold);
        for (const CutGraph* g : {&graph, &full}) {
          const std::string diff = dendrogram_difference(
              hierarchical_cluster(*g, linkage, threshold), want);
          ASSERT_TRUE(diff.empty())
              << diff << " (trial " << trial << ", n " << n << ", levels "
              << levels << ", linkage " << static_cast<int>(linkage)
              << ", threshold " << threshold << ", cut " << g->cut() << ")";
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 20000u);
}

TEST(HierarchicalCutGraph, MatrixOverloadMatchesReferenceOnBothSides) {
  // Uniform distances put a share `threshold` of the pairs under the cut,
  // from sparse graphs to ones holding most pairs, and tied matrices
  // exercise the tie rules; the ignored SimdMode changes nothing.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.index(80);
    const DistanceMatrix m = trial % 2 == 0
                                 ? tied_matrix(rng, n, 2 + rng.index(10))
                                 : uniform_matrix(rng, n);
    for (const Linkage linkage : {Linkage::kSingle, Linkage::kComplete}) {
      for (const double threshold : {0.05, 0.15, 0.5, 0.8}) {
        for (const SimdMode simd : {SimdMode::kAuto, SimdMode::kScalar}) {
          const std::string diff = dendrogram_difference(
              hierarchical_cluster(m, linkage, threshold, simd),
              reference_cluster(m, linkage, threshold));
          ASSERT_TRUE(diff.empty()) << diff << " (trial " << trial << ", n "
                                    << n << ", threshold " << threshold << ")";
        }
      }
    }
  }
}

TEST(HierarchicalCutGraph, RowsAscendingSymmetricAndExact) {
  Rng rng(11);
  const DistanceMatrix m = tied_matrix(rng, 30, 5);
  const CutGraph graph = cut_graph(m, 0.5);
  EXPECT_EQ(graph.size(), 30u);
  EXPECT_EQ(graph.cut(), 0.5);
  std::size_t entries = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto ids = graph.neighbours(i);
    const auto ds = graph.distances(i);
    ASSERT_EQ(ids.size(), ds.size());
    std::vector<std::uint32_t> want;
    for (std::uint32_t j = 0; j < m.size(); ++j) {
      if (j != i && m.at(i, j) <= 0.5) want.push_back(j);
    }
    EXPECT_EQ(std::vector<std::uint32_t>(ids.begin(), ids.end()), want);
    for (std::size_t t = 0; t < ids.size(); ++t) {
      EXPECT_EQ(ds[t], m.at(i, ids[t]));
    }
    entries += ids.size();
  }
  EXPECT_EQ(entries, 2 * graph.num_pairs());
}

TEST(HierarchicalCutGraph, Contracts) {
  const CutGraph::Pair ok[] = {{0, 1, 0.25}, {0, 2, 0.5}, {1, 2, 0.0}};
  const CutGraph graph(3, 0.5, ok);
  EXPECT_EQ(graph.num_pairs(), 3u);
  // A threshold above the cut could merge a pair the graph does not hold.
  EXPECT_THROW((void)hierarchical_cluster(graph, Linkage::kComplete, 0.75),
               PreconditionError);
  EXPECT_EQ(hierarchical_cluster(graph, Linkage::kComplete, 0.5).num_clusters,
            1u);
  const CutGraph::Pair above[] = {{0, 1, 0.75}};
  EXPECT_THROW(CutGraph(2, 0.5, above), PreconditionError);
  const CutGraph::Pair reversed[] = {{1, 0, 0.25}};
  EXPECT_THROW(CutGraph(2, 0.5, reversed), PreconditionError);
  const CutGraph::Pair out_of_range[] = {{0, 2, 0.25}};
  EXPECT_THROW(CutGraph(2, 0.5, out_of_range), PreconditionError);
  // Item 2 would meet neighbour 1 before neighbour 0.
  const CutGraph::Pair descending[] = {{1, 2, 0.25}, {0, 2, 0.25}};
  EXPECT_THROW(CutGraph(3, 0.5, descending), PreconditionError);
  EXPECT_THROW(CutGraph(2, std::nan(""), {}), PreconditionError);
  EXPECT_THROW((void)hierarchical_cluster(two_blobs(), Linkage::kComplete,
                                          std::nan("")),
               PreconditionError);
  // Infinite distances never merge, on either overload.
  const double inf = std::numeric_limits<double>::infinity();
  DistanceMatrix far(3);
  far.set(0, 1, inf);
  far.set(0, 2, inf);
  far.set(1, 2, inf);
  EXPECT_EQ(hierarchical_cluster(cut_graph(far, inf), Linkage::kComplete, inf)
                .num_clusters,
            3u);
  EXPECT_EQ(hierarchical_cluster(far, Linkage::kComplete, inf).num_clusters,
            3u);
  const CutGraph empty(0, 0.5, {});
  EXPECT_EQ(hierarchical_cluster(empty, Linkage::kSingle, 0.5).num_clusters,
            0u);
}

}  // namespace
}  // namespace ccdn
