#include "core/balance_graph.h"

#include <algorithm>
#include <limits>

#include "geo/geo_point.h"
#include "util/error.h"

namespace ccdn {

HotspotPartition HotspotPartition::from_loads(
    std::span<const Hotspot> hotspots, std::span<const std::uint32_t> loads) {
  CCDN_REQUIRE(hotspots.size() == loads.size(),
               "hotspot/load count mismatch");
  HotspotPartition partition;
  partition.phi.assign(hotspots.size(), 0);
  for (std::size_t h = 0; h < hotspots.size(); ++h) {
    const auto capacity =
        static_cast<std::int64_t>(hotspots[h].service_capacity);
    const auto load = static_cast<std::int64_t>(loads[h]);
    if (load > capacity) {
      partition.overloaded.push_back(static_cast<std::uint32_t>(h));
      partition.phi[h] = load - capacity;
    } else if (load < capacity) {
      partition.underutilized.push_back(static_cast<std::uint32_t>(h));
      partition.phi[h] = capacity - load;
    }
  }
  return partition;
}

std::int64_t HotspotPartition::max_movable() const {
  std::int64_t out = 0;
  std::int64_t in = 0;
  for (const auto i : overloaded) out += phi[i];
  for (const auto j : underutilized) in += phi[j];
  return std::min(out, in);
}

std::vector<CandidateEdge> candidate_edges(std::span<const Hotspot> hotspots,
                                           const HotspotPartition& partition,
                                           double radius_km,
                                           const GridIndex& index) {
  CCDN_REQUIRE(radius_km >= 0.0, "negative radius");
  CCDN_REQUIRE(index.size() == hotspots.size(),
               "index/hotspot count mismatch");
  std::vector<CandidateEdge> edges;
  // Bucket the receivers into a subset view of the index: it shares the
  // parent's projection and cells, so each query sees exactly the receivers
  // the full within_radius() would return — without wading through the
  // senders and balanced hotspots that dominate every neighbourhood.
  GridIndex::Subset receivers(index);
  receivers.assign(partition.underutilized);
  // The grid filters on its planar projection, which can disagree with
  // distance_km by a fraction of a percent at city scale; query slightly
  // wide and keep the exact d < radius_km cut so the result matches the
  // pair scan (tests/core/reference_pair_scans.h) bit for bit.
  const double query_radius = radius_km * 1.001 + 1e-6;
  std::vector<std::size_t> near;
  for (const auto i : partition.overloaded) {
    receivers.within_radius(hotspots[i].location, query_radius, near);
    for (const std::size_t j : near) {
      const double d =
          distance_km(hotspots[i].location, hotspots[j].location);
      if (d < radius_km) {
        edges.push_back({i, static_cast<std::uint32_t>(j), d});
      }
    }
  }
  return edges;
}

namespace {

/// Dense hotspot → flow-node map for a scaffold built by build_scaffold.
struct ScaffoldMap {
  static constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

  NodeId source = 0;
  NodeId sink = 0;
  /// Indexed by hotspot id; kNoNode for hotspots with no remaining slack.
  std::vector<NodeId> node_of;

  [[nodiscard]] NodeId at(std::uint32_t hotspot) const {
    const NodeId node = node_of[hotspot];
    CCDN_ASSERT(node != kNoNode, "hotspot has no scaffold node");
    return node;
  }
};

/// The shared Gd/Gc scaffold for `partition`, in a fresh network: source,
/// sink, one node per hotspot with remaining slack, and the source/sink
/// arcs (cap φ).
void build_scaffold(FlowNetwork& net, const HotspotPartition& partition,
                    ScaffoldMap& map) {
  net = FlowNetwork(2);
  map.source = 0;
  map.sink = 1;
  map.node_of.assign(partition.phi.size(), ScaffoldMap::kNoNode);
  for (const auto i : partition.overloaded) {
    if (partition.phi[i] <= 0) continue;
    const NodeId node = net.add_node();
    map.node_of[i] = node;
    (void)net.add_edge(map.source, node, partition.phi[i], 0.0);
  }
  for (const auto j : partition.underutilized) {
    if (partition.phi[j] <= 0) continue;
    const NodeId node = net.add_node();
    map.node_of[j] = node;
    (void)net.add_edge(node, map.sink, partition.phi[j], 0.0);
  }
}

/// Append the direct pair edge (cap min(φ_i, φ_j), cost d_ij) for every
/// candidate in `live`, already filtered to d < θ and φ > 0 on both
/// endpoints. Records each edge in `pair_edges`.
void append_gd_edges(FlowNetwork& net, const ScaffoldMap& map,
                     const HotspotPartition& partition,
                     std::span<const CandidateEdge> live,
                     std::vector<BalanceGraph::PairEdge>& pair_edges) {
  for (const auto& c : live) {
    const std::int64_t cap =
        std::min(partition.phi[c.from], partition.phi[c.to]);
    const EdgeId e =
        net.add_edge(map.at(c.from), map.at(c.to), cap, c.distance_km);
    pair_edges.push_back({c.from, c.to, e});
  }
}

/// Append the Gc structure over `live` (filtered as for append_gd_edges):
/// direct edges for un-guided groups, guide nodes n_kj plus member and
/// aggregate edges for guided ones. Returns the number of guide nodes.
std::size_t append_gc_edges(FlowNetwork& net, const ScaffoldMap& map,
                            const HotspotPartition& partition,
                            std::span<const CandidateEdge> live,
                            double theta_km,
                            std::span<const std::uint32_t> cluster_of,
                            const GuideOptions& options,
                            std::vector<BalanceGraph::PairEdge>& pair_edges) {
  CCDN_REQUIRE(options.fill_threshold >= 0.0, "negative fill threshold");

  // Group candidate senders of each under-utilized hotspot by cluster:
  // H_jk = { i ∈ SinktoSource(j) : i ∈ P_k }. Sorting (j, k, idx) yields
  // the same group order as an ordered map keyed (j, k) and the same
  // within-group member order as the candidate list.
  struct Key {
    std::uint32_t j = 0;    // under-utilized receiver
    std::uint32_t k = 0;    // sender's content cluster
    std::uint32_t idx = 0;  // position in `live` (keeps sorting unique)
  };
  std::vector<Key> keys;
  keys.reserve(live.size());
  for (std::uint32_t idx = 0; idx < live.size(); ++idx) {
    const auto& c = live[idx];
    CCDN_REQUIRE(c.from < cluster_of.size() && c.to < cluster_of.size(),
                 "cluster labels do not cover all hotspots");
    keys.push_back({c.to, cluster_of[c.from], idx});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.j != b.j) return a.j < b.j;
    if (a.k != b.k) return a.k < b.k;
    return a.idx < b.idx;
  });

  std::vector<std::uint32_t> group_start;  // boundaries into keys
  std::vector<std::int64_t> phi_sum;       // Σ φ_ij per group
  for (std::uint32_t pos = 0; pos < keys.size(); ++pos) {
    const auto& key = keys[pos];
    if (pos == 0 || key.j != keys[pos - 1].j || key.k != keys[pos - 1].k) {
      group_start.push_back(pos);
      phi_sum.push_back(0);
    }
    const auto& c = live[key.idx];
    phi_sum.back() += std::min(partition.phi[c.from], partition.phi[c.to]);
  }
  const std::size_t num_groups = phi_sum.size();
  group_start.push_back(static_cast<std::uint32_t>(keys.size()));

  // Decide which groups get a guide node, and gather the raw guide costs
  // for the unit normalization.
  std::vector<double> direct_distances;
  std::vector<double> raw_guide_costs;
  std::vector<std::uint8_t> guided;
  guided.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::uint32_t begin = group_start[g];
    const std::uint32_t end = group_start[g + 1];
    const std::uint32_t j = keys[begin].j;
    const std::uint32_t k = keys[begin].k;
    const bool fills_enough =
        static_cast<double>(phi_sum[g]) >=
        options.fill_threshold * static_cast<double>(partition.phi[j]);
    const bool own_cluster = cluster_of[j] == k;
    const bool guide = fills_enough || own_cluster;
    guided.push_back(guide ? 1 : 0);
    if (guide) {
      raw_guide_costs.push_back(static_cast<double>(phi_sum[g]) /
                                static_cast<double>(end - begin));
    } else {
      for (std::uint32_t pos = begin; pos < end; ++pos) {
        direct_distances.push_back(live[keys[pos].idx].distance_km);
      }
    }
  }

  // Paper Eq. (§IV-B): guide cost = Σφ_ij / ‖H_jk‖, which is in request
  // units while direct edges cost km. auto_scale maps the raw costs into
  // the distance range (median-to-median) so MCMF actually trades the two
  // off; cost_scale then biases toward (<1) or away from (>1) guides.
  double scale = options.cost_scale;
  if (options.auto_scale && !raw_guide_costs.empty()) {
    // In place: neither buffer is read again (the guide loop recomputes
    // raw costs from phi_sum).
    auto median_of = [](std::vector<double>& v) {
      std::nth_element(
          v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
          v.end());
      return v[v.size() / 2];
    };
    const double median_raw = median_of(raw_guide_costs);
    const double median_direct = direct_distances.empty()
                                     ? theta_km / 2.0
                                     : median_of(direct_distances);
    if (median_raw > 0.0) {
      scale *= 0.5 * median_direct / median_raw;
    }
  }

  std::size_t guide_nodes = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::uint32_t begin = group_start[g];
    const std::uint32_t end = group_start[g + 1];
    if (!guided[g]) {
      for (std::uint32_t pos = begin; pos < end; ++pos) {
        const auto& c = live[keys[pos].idx];
        const std::int64_t cap =
            std::min(partition.phi[c.from], partition.phi[c.to]);
        const EdgeId e =
            net.add_edge(map.at(c.from), map.at(c.to), cap, c.distance_km);
        pair_edges.push_back({c.from, c.to, e});
      }
      continue;
    }
    // Guide node n_kj: members connect at zero cost; the aggregate edge to
    // j carries the (scaled) paper cost and is clamped to j's slack.
    const std::uint32_t j = keys[begin].j;
    const NodeId guide_node = net.add_node();
    ++guide_nodes;
    const double raw_cost =
        static_cast<double>(phi_sum[g]) / static_cast<double>(end - begin);
    for (std::uint32_t pos = begin; pos < end; ++pos) {
      const auto& c = live[keys[pos].idx];
      const std::int64_t cap =
          std::min(partition.phi[c.from], partition.phi[c.to]);
      const EdgeId e = net.add_edge(map.at(c.from), guide_node, cap, 0.0);
      pair_edges.push_back({c.from, c.to, e});
    }
    (void)net.add_edge(guide_node, map.at(j),
                       std::min(phi_sum[g], partition.phi[j]),
                       scale * raw_cost);
  }
  return guide_nodes;
}

/// Candidates filtered to d < θ with both endpoints still having slack.
std::vector<CandidateEdge> live_candidates(
    const HotspotPartition& partition,
    std::span<const CandidateEdge> candidates, double theta_km) {
  std::vector<CandidateEdge> live;
  for (const auto& c : candidates) {
    if (c.distance_km < theta_km && partition.phi[c.from] > 0 &&
        partition.phi[c.to] > 0) {
      live.push_back(c);
    }
  }
  return live;
}

}  // namespace

BalanceGraph build_gd(const HotspotPartition& partition,
                      std::span<const CandidateEdge> candidates,
                      double theta_km) {
  BalanceGraph graph;
  ScaffoldMap map;
  build_scaffold(graph.net, partition, map);
  graph.source = map.source;
  graph.sink = map.sink;
  append_gd_edges(graph.net, map, partition,
                  live_candidates(partition, candidates, theta_km),
                  graph.pair_edges);
  return graph;
}

BalanceGraph build_gc(const HotspotPartition& partition,
                      std::span<const CandidateEdge> candidates,
                      double theta_km,
                      std::span<const std::uint32_t> cluster_of,
                      const GuideOptions& options) {
  BalanceGraph graph;
  ScaffoldMap map;
  build_scaffold(graph.net, partition, map);
  graph.source = map.source;
  graph.sink = map.sink;
  graph.num_guide_nodes = append_gc_edges(
      graph.net, map, partition,
      live_candidates(partition, candidates, theta_km), theta_km, cluster_of,
      options, graph.pair_edges);
  return graph;
}

void merge_flow_entries(std::vector<FlowEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const FlowEntry& a, const FlowEntry& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  std::size_t out = 0;
  for (std::size_t in = 0; in < entries.size(); ++in) {
    if (out > 0 && entries[out - 1].from == entries[in].from &&
        entries[out - 1].to == entries[in].to) {
      entries[out - 1].amount += entries[in].amount;
    } else {
      entries[out++] = entries[in];
    }
  }
  entries.resize(out);
}

std::vector<FlowEntry> extract_flows(const BalanceGraph& graph) {
  std::vector<FlowEntry> entries;
  entries.reserve(graph.pair_edges.size());
  for (const auto& pair : graph.pair_edges) {
    const std::int64_t f = graph.net.flow(pair.edge);
    if (f > 0) entries.push_back({pair.from, pair.to, f});
  }
  merge_flow_entries(entries);
  return entries;
}

}  // namespace ccdn
