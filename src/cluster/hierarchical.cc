#include "cluster/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

#include "util/error.h"

namespace ccdn {

DistanceMatrix::DistanceMatrix(std::size_t n)
    : n_(n), data_(n < 2 ? 0 : n * (n - 1) / 2, 0.0) {}

std::size_t DistanceMatrix::slot(std::size_t i, std::size_t j) const {
  // Debug-only: at() sits inside the clustering inner loops, so a thrown
  // check per read would dominate release-mode profiles.
  CCDN_ASSERT(i < n_ && j < n_ && i != j, "bad index pair");
  if (i > j) std::swap(i, j);
  // Condensed index of (i, j), i < j.
  return i * n_ - i * (i + 1) / 2 + (j - i - 1);
}

double DistanceMatrix::at(std::size_t i, std::size_t j) const {
  if (i == j) return 0.0;
  return data_[slot(i, j)];
}

void DistanceMatrix::set(std::size_t i, std::size_t j, double distance) {
  CCDN_REQUIRE(distance >= 0.0, "negative distance");
  data_[slot(i, j)] = distance;
}

CutGraph::CutGraph(std::size_t n, double cut, std::span<const Pair> pairs)
    : cut_(cut), offsets_(n + 1, 0) {
  CCDN_REQUIRE(!std::isnan(cut), "NaN cut");
  for (const Pair& p : pairs) {
    CCDN_REQUIRE(p.i < p.j && p.j < n, "cut pair out of range");
    CCDN_REQUIRE(p.distance <= cut, "cut pair above the cut");
    ++offsets_[p.i + 1];
    ++offsets_[p.j + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  neighbours_.resize(offsets_[n]);
  distances_.resize(offsets_[n]);
  // Counting-sort fill in listing order: each row comes out in the order
  // its item met its neighbours, which the contract makes ascending.
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  const auto append = [&](std::uint32_t row, std::uint32_t id, double d) {
    const std::size_t at = cursor[row]++;
    CCDN_REQUIRE(at == offsets_[row] || neighbours_[at - 1] < id,
                 "cut pairs not in ascending order per item");
    neighbours_[at] = id;
    distances_[at] = d;
  };
  for (const Pair& p : pairs) {
    append(p.i, p.j, p.distance);
    append(p.j, p.i, p.distance);
  }
}

CutGraph cut_graph(const DistanceMatrix& distances, double cut) {
  const std::size_t n = distances.size();
  const auto condensed = distances.condensed();
  std::vector<CutGraph::Pair> pairs;
  std::size_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++s) {
      if (condensed[s] <= cut) {
        pairs.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j), condensed[s]});
      }
    }
  }
  return CutGraph(n, cut, pairs);
}

namespace {

/// Distance between a freshly merged cluster (a ∪ b) and another cluster k,
/// from the two parents' distances to k (Lance–Williams). Either result is
/// one of its arguments, so it never falls below both parents' distances:
/// that is why a row's cached minimum stays put unless its cached
/// neighbour took part in the merge.
double merged_distance(Linkage linkage, double d_ak, double d_bk) {
  return linkage == Linkage::kSingle ? std::min(d_ak, d_bk)
                                     : std::max(d_ak, d_bk);
}

/// Labels from the merge history: union-find over the merges (all at or
/// under the threshold by construction), clusters numbered by first member.
void flatten(std::size_t n, ClusteringResult& result) {
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) -> std::uint32_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // Map dendrogram node id -> representative leaf.
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
}

/// One entry of a working row in the cut-graph loop. A merge does not
/// erase the survivor's or the absorbed cluster's entries from the other
/// rows: it bumps the survivor's version, so entries naming an inactive id
/// or an old version are dead, and scans skip and compact them.
struct RowEntry {
  std::uint32_t id;
  std::uint32_t version;
  double distance;
};

/// The nearest-neighbour-cache loop on the cut graph (rules in
/// hierarchical.h); only live in-cut entries exist, so each merge costs the
/// two parents' rows plus the rows it rescans.
ClusteringResult sparse_cluster(const CutGraph& graph, Linkage linkage,
                                double threshold) {
  const std::size_t n = graph.size();
  ClusteringResult result;
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<std::vector<RowEntry>> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto ids = graph.neighbours(i);
    const auto ds = graph.distances(i);
    rows[i].reserve(ids.size());
    for (std::size_t t = 0; t < ids.size(); ++t) {
      rows[i].push_back({ids[t], 0, ds[t]});
    }
  }
  std::vector<std::uint32_t> version(n, 0);
  std::vector<std::uint8_t> active(n, 1);
  std::vector<std::uint32_t> node_id(n);
  std::iota(node_id.begin(), node_id.end(), 0u);
  const auto live = [&](const RowEntry& e) {
    return active[e.id] != 0 && e.version == version[e.id];
  };

  // Min-heap of (cached distance, row): its least live entry is the
  // lowest active index at the least cached distance, the pair a scan of
  // every cache would pick. Entries are pushed on every cache change and
  // checked against the cache when popped. Only rows with a neighbour at
  // or under the threshold enter, and only they can ever merge.
  using HeapEntry = std::pair<double, std::uint32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      heap;
  std::vector<std::uint32_t> nn(n, kNone);
  std::vector<double> nn_dist(n, kInf);
  const auto recompute_nn = [&](std::uint32_t i) {
    double best = kInf;
    std::uint32_t best_j = kNone;
    auto& row = rows[i];
    std::size_t kept = 0;
    for (const RowEntry& e : row) {
      if (!live(e)) continue;
      row[kept++] = e;
      if (e.distance < best || (e.distance == best && e.id < best_j)) {
        best = e.distance;
        best_j = e.id;
      }
    }
    row.resize(kept);
    nn_dist[i] = best;
    nn[i] = best_j;
    // Never merge at +inf, even under an infinite threshold.
    if (best <= threshold && best != kInf) heap.emplace(best, i);
  };
  for (std::uint32_t i = 0; i < n; ++i) recompute_nn(i);

  // Per-merge work arrays, indexed by item and tagged with the merge's stamp
  // so nothing is cleared between merges.
  std::vector<std::uint32_t> in_b(n, 0);      // stamp: k is in b's row
  std::vector<double> b_dist(n, 0.0);         // b's distance to k
  std::vector<std::uint32_t> rescan_mark(n, 0);
  std::vector<std::uint32_t> rescan;
  std::vector<RowEntry> merged;
  std::uint32_t stamp = 0;
  std::uint32_t next_node = static_cast<std::uint32_t>(n);
  while (!heap.empty()) {
    const auto [best, a] = heap.top();
    heap.pop();
    if (active[a] == 0 || nn_dist[a] != best) continue;
    const std::uint32_t b = nn[a];
    CCDN_ENSURE(b != kNone && active[b] && a != b, "stale nearest neighbour");
    result.merges.push_back({node_id[a], node_id[b], best});
    ++stamp;

    // Rows caching a or b as their neighbour hold a live entry for it, so
    // they all sit in a's or b's row.
    rescan.clear();
    for (const std::uint32_t row : {a, b}) {
      for (const RowEntry& e : rows[row]) {
        if (!live(e) || e.id == a || e.id == b) continue;
        if (rescan_mark[e.id] != stamp && (nn[e.id] == a || nn[e.id] == b)) {
          rescan_mark[e.id] = stamp;
          rescan.push_back(e.id);
        }
        if (row == b) {
          in_b[e.id] = stamp;
          b_dist[e.id] = e.distance;
        }
      }
    }

    // a ∪ b's row: a pair above the cut merges to a distance above it
    // under complete linkage (intersect the rows, keep the max) and to the
    // in-cut parent's distance under single linkage (union, keep the min).
    merged.clear();
    for (const RowEntry& e : rows[a]) {
      if (!live(e) || e.id == b) continue;
      if (in_b[e.id] == stamp) {
        in_b[e.id] = 0;  // consumed
        merged.push_back({e.id, e.version,
                          merged_distance(linkage, e.distance, b_dist[e.id])});
      } else if (linkage == Linkage::kSingle) {
        merged.push_back(e);
      }
    }
    if (linkage == Linkage::kSingle) {
      for (const RowEntry& e : rows[b]) {
        if (live(e) && e.id != a && in_b[e.id] == stamp) merged.push_back(e);
      }
    }

    active[b] = 0;
    rows[b] = {};
    node_id[a] = next_node++;
    ++version[a];
    rows[a].swap(merged);
    for (const RowEntry& e : rows[a]) {
      rows[e.id].push_back({a, version[a], e.distance});
    }

    // Only the merged row and the rows that cached a or b are rescanned:
    // no other row's least distance can change (merged_distance).
    recompute_nn(a);
    for (const std::uint32_t k : rescan) recompute_nn(k);
  }
  return result;
}

}  // namespace

ClusteringResult hierarchical_cluster(const DistanceMatrix& distances,
                                      Linkage linkage, double threshold,
                                      SimdMode /*simd*/) {
  return hierarchical_cluster(cut_graph(distances, threshold), linkage,
                              threshold);
}

ClusteringResult hierarchical_cluster(const CutGraph& graph, Linkage linkage,
                                      double threshold) {
  CCDN_REQUIRE(threshold <= graph.cut(),
               "clustering threshold above the cut graph's cut");
  ClusteringResult result = sparse_cluster(graph, linkage, threshold);
  flatten(graph.size(), result);
  return result;
}

}  // namespace ccdn
