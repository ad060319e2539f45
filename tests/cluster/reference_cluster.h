// Test-only reference clustering: the seed agglomerative loop over an n×n
// vector-of-vectors copy of the matrix, with the nearest-neighbour cache
// and tie rules every production path must reproduce — a row's nearest
// neighbour is the lowest id at its least distance (ascending strict-<
// scan), the pair merged is the lowest active index at the least cached
// distance, and it merges into that lower index. The differentials in
// hierarchical_test.cc and topset_bitmap_test.cc require identical labels
// and identical merges (left, right and distance).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/hierarchical.h"

namespace ccdn {

inline ClusteringResult reference_cluster(const DistanceMatrix& distances,
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
  const auto merged_distance = [linkage](double d_ak, double d_bk) {
    return linkage == Linkage::kSingle ? std::min(d_ak, d_bk)
                                       : std::max(d_ak, d_bk);
  };

  std::vector<bool> active(n, true);
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
      const double d = merged_distance(dist[a][k], dist[b][k]);
      dist[a][k] = dist[k][a] = d;
    }
    active[b] = false;
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

/// Empty when `got` has the reference's labels and merges, else the first
/// difference, for a test's failure message.
inline std::string dendrogram_difference(const ClusteringResult& got,
                                         const ClusteringResult& want) {
  if (got.merges.size() != want.merges.size()) {
    return "merge count " + std::to_string(got.merges.size()) + " vs " +
           std::to_string(want.merges.size());
  }
  for (std::size_t s = 0; s < got.merges.size(); ++s) {
    const MergeStep& g = got.merges[s];
    const MergeStep& w = want.merges[s];
    if (g.left != w.left || g.right != w.right || g.distance != w.distance) {
      return "merge " + std::to_string(s) + ": (" + std::to_string(g.left) +
             ", " + std::to_string(g.right) + ", " +
             std::to_string(g.distance) + ") vs (" + std::to_string(w.left) +
             ", " + std::to_string(w.right) + ", " +
             std::to_string(w.distance) + ")";
    }
  }
  if (got.labels != want.labels || got.num_clusters != want.num_clusters) {
    return "labels differ";
  }
  return {};
}

}  // namespace ccdn
