// Agglomerative hierarchical clustering (paper §IV-B, citing Johnson 1967).
//
// RBCAer clusters hotspots by content-aware distance Jd = 1 − Jaccard and
// cuts the dendrogram so that no two members of a cluster are farther apart
// than 0.5 (complete linkage realizes that guarantee exactly). The merges
// under the cut happen on the pairs under it, so the loop runs on their
// cut graph (DESIGN.md §3.15); the matrix overload extracts that graph
// first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/cpu_features.h"

namespace ccdn {

enum class Linkage { kSingle, kComplete };

/// Symmetric pairwise distances with condensed upper-triangle storage.
/// Diagonal is implicitly zero.
class DistanceMatrix {
 public:
  explicit DistanceMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double distance);

  /// Raw condensed upper triangle, row-major: entry (i, j) with i < j lives
  /// at i*n - i*(i+1)/2 + (j-i-1), so row i's entries (i, i+1..n-1) are a
  /// contiguous slice of length n-1-i. Bulk producers (the parallel Jd
  /// build) write disjoint row slices directly; consumers memcpy the whole
  /// triangle instead of going through at() per pair.
  [[nodiscard]] std::span<const double> condensed() const noexcept {
    return data_;
  }
  [[nodiscard]] std::span<double> condensed() noexcept { return data_; }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const;

  std::size_t n_;
  std::vector<double> data_;
};

/// The pairs whose distance is at or under a cut, as a symmetric CSR graph
/// over items [0, n): row i lists i's neighbours in ascending id order with
/// the pairs' exact distances. Under complete and single linkage every
/// merge at or under the cut happens on this graph (DESIGN.md §3.15), so
/// the dendrogram below the cut needs no n×n buffer.
class CutGraph {
 public:
  /// One pair i < j with its distance.
  struct Pair {
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    double distance = 0.0;
  };

  /// Graph on `n` items from `pairs` (each at most `cut`, i < j < n, no
  /// duplicates), listed so that every item meets its neighbours in
  /// ascending id order — row-major (i, j) order does, and so does the Jd
  /// sweep's tile-major order. PreconditionError otherwise, or on a NaN
  /// cut.
  CutGraph(std::size_t n, double cut, std::span<const Pair> pairs);

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.size() - 1;
  }
  /// Every pair at or under this distance is in the graph.
  [[nodiscard]] double cut() const noexcept { return cut_; }
  [[nodiscard]] std::size_t num_pairs() const noexcept {
    return neighbours_.size() / 2;
  }
  [[nodiscard]] std::span<const std::uint32_t> neighbours(
      std::size_t i) const {
    return std::span(neighbours_).subspan(offsets_[i],
                                          offsets_[i + 1] - offsets_[i]);
  }
  /// distances(i)[t] is the distance from i to neighbours(i)[t].
  [[nodiscard]] std::span<const double> distances(std::size_t i) const {
    return std::span(distances_).subspan(offsets_[i],
                                         offsets_[i + 1] - offsets_[i]);
  }

 private:
  double cut_;
  std::vector<std::size_t> offsets_;  // n + 1 row starts
  std::vector<std::uint32_t> neighbours_;
  std::vector<double> distances_;
};

/// The pairs of `distances` at or under `cut`.
[[nodiscard]] CutGraph cut_graph(const DistanceMatrix& distances, double cut);

/// One merge step of the dendrogram (children may be leaves [0,n) or prior
/// merges [n, n+step)).
struct MergeStep {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  double distance = 0.0;
};

struct ClusteringResult {
  /// Cluster label per item, 0..num_clusters-1, labelled by order of first
  /// member.
  std::vector<std::uint32_t> labels;
  std::size_t num_clusters = 0;
  /// Full merge history (useful for dendrogram inspection in tests).
  std::vector<MergeStep> merges;
};

/// Cluster items, merging while the linkage distance is <= threshold.
/// With complete linkage this guarantees every intra-cluster pairwise
/// distance is <= threshold (the paper's Jd <= 0.5 rule).
///
/// One nearest-neighbour-cache loop runs on the cut graph, so its cost
/// follows the pairs at or under the threshold, not n². Its tie rules fix
/// merges, merge distances and labels: a row's nearest neighbour is the
/// lowest id at its least distance, the pair merged is the lowest active
/// index at the least cached distance, and it merges into that lower
/// index. Requires threshold <= graph.cut() (PreconditionError), since a
/// pair above the cut could merge under a larger threshold.
[[nodiscard]] ClusteringResult hierarchical_cluster(const CutGraph& graph,
                                                    Linkage linkage,
                                                    double threshold);

/// The same loop on cut_graph(distances, threshold); a NaN threshold throws
/// PreconditionError. `simd` is ignored; kept only because
/// perfbench/trace_mode.cc passes it.
[[nodiscard]] ClusteringResult hierarchical_cluster(
    const DistanceMatrix& distances, Linkage linkage, double threshold,
    SimdMode simd = SimdMode::kAuto);

}  // namespace ccdn
