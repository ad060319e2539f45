#include "verify/flow_audit.h"

#include <string>
#include <vector>

namespace ccdn {

namespace {

// Matches the solver's float-noise tolerance (flow/mcmf.cc).
constexpr double kEps = 1e-9;

std::string node_str(NodeId v) { return std::to_string(v); }

}  // namespace

void audit_flow_conservation(const FlowNetwork& net, NodeId source,
                             NodeId sink, AuditReport& report) {
  const std::size_t n = net.num_nodes();
  if (source >= n || sink >= n || source == sink) {
    report.add("terminal-nodes",
               "source " + node_str(source) + " / sink " + node_str(sink) +
                   " invalid for " + std::to_string(n) + " nodes");
    return;
  }
  std::vector<std::int64_t> balance(n, 0);
  const auto stored = static_cast<EdgeId>(2 * net.num_edges());
  for (EdgeId e = 0; e < stored; e += 2) {
    const std::int64_t flow = net.flow(e);
    const auto& edge = net.edge(e);
    if (flow < 0) {
      report.add("edge-flow-negative",
                 "edge " + std::to_string(e) + " (" + node_str(edge.from) +
                     "->" + node_str(edge.to) + ") carries " +
                     std::to_string(flow));
    }
    if (flow > net.original_capacity(e)) {
      report.add("edge-over-capacity",
                 "edge " + std::to_string(e) + " (" + node_str(edge.from) +
                     "->" + node_str(edge.to) + ") carries " +
                     std::to_string(flow) + " > capacity " +
                     std::to_string(net.original_capacity(e)));
    }
    balance[edge.from] -= flow;
    balance[edge.to] += flow;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == source || v == sink) continue;
    if (balance[v] != 0) {
      report.add("flow-conservation",
                 "node " + node_str(v) + " has net imbalance " +
                     std::to_string(balance[v]));
    }
  }
  if (balance[source] > 0 || balance[sink] < 0 ||
      balance[source] != -balance[sink]) {
    report.add("terminal-imbalance",
               "source emits " + std::to_string(-balance[source]) +
                   ", sink absorbs " + std::to_string(balance[sink]));
  }
}

namespace {

// Visit every audited arc id once: raw storage order for kStore, adjacency
// order for kTraversable (each live arc sits in exactly one node's slice,
// so the adjacency walk neither duplicates nor misses a traversable arc).
template <typename Fn>
void for_each_audited_arc(const FlowNetwork& net, ArcWalk walk, Fn&& fn) {
  if (walk == ArcWalk::kStore) {
    const auto stored = static_cast<EdgeId>(2 * net.num_edges());
    for (EdgeId e = 0; e < stored; ++e) fn(e);
    return;
  }
  for (std::size_t n = 0; n < net.num_nodes(); ++n) {
    for (const EdgeId e : net.out_edges(static_cast<NodeId>(n))) fn(e);
  }
}

}  // namespace

void audit_reduced_costs(const FlowNetwork& net,
                         std::span<const double> potentials,
                         AuditReport& report, ArcWalk walk) {
  const bool zero_potentials = potentials.empty();
  if (!zero_potentials && potentials.size() < net.num_nodes()) {
    report.add("potentials-missing",
               std::to_string(potentials.size()) + " potentials for " +
                   std::to_string(net.num_nodes()) + " nodes");
    return;
  }
  for_each_audited_arc(net, walk, [&](EdgeId e) {
    const auto& edge = net.edge(e);
    if (edge.capacity <= 0) return;
    const double reduced =
        zero_potentials
            ? edge.cost
            : edge.cost + potentials[edge.from] - potentials[edge.to];
    if (reduced < -kEps) {
      report.add("negative-reduced-cost",
                 "arc " + std::to_string(e) + " (" + node_str(edge.from) +
                     "->" + node_str(edge.to) + ") prices at " +
                     std::to_string(reduced));
    }
  });
}

void audit_epoch_residual(const FlowNetwork& net, AuditReport& report) {
  const std::size_t n = net.num_nodes();
  const auto stored = static_cast<EdgeId>(2 * net.num_edges());
  // Everywhere-seeded Bellman-Ford: with every node at 0 there is no
  // reachability question — only a negative cycle can keep a label falling
  // for n rounds.
  std::vector<double> pot(n, 0.0);
  bool changed = true;
  for (std::size_t round = 0; round < n && changed; ++round) {
    changed = false;
    for (EdgeId e = 0; e < stored; ++e) {
      const auto& edge = net.edge(e);
      if (edge.capacity <= 0) continue;
      const double candidate = pot[edge.from] + edge.cost;
      if (candidate + kEps < pot[edge.to]) {
        pot[edge.to] = candidate;
        changed = true;
      }
    }
  }
  if (changed) {
    report.add("negative-residual-cycle",
               "residual graph relaxation did not converge in " +
                   std::to_string(n) +
                   " rounds: the committed flow is not min-cost");
    return;
  }
  audit_reduced_costs(net, pot, report);
}

void audit_flow_entries(std::span<const FlowEntry> flows,
                        const HotspotPartition& partition,
                        std::span<const std::int64_t> initial_phi,
                        AuditReport& report) {
  const std::size_t m = initial_phi.size();
  // Role per hotspot: 0 = balanced, 1 = overloaded (sender), 2 =
  // under-utilized (receiver).
  std::vector<std::uint8_t> role(m, 0);
  for (const std::uint32_t i : partition.overloaded) {
    if (i < m) role[i] = 1;
  }
  for (const std::uint32_t j : partition.underutilized) {
    if (j < m) role[j] = 2;
  }
  std::vector<std::int64_t> outflow(m, 0);
  std::vector<std::int64_t> inflow(m, 0);
  for (const auto& f : flows) {
    if (f.from >= m || f.to >= m) {
      report.add("flow-endpoint-range",
                 "entry " + std::to_string(f.from) + "->" +
                     std::to_string(f.to) + " outside " + std::to_string(m) +
                     " hotspots");
      continue;
    }
    if (f.amount <= 0) {
      report.add("flow-entry-nonpositive",
                 "entry " + std::to_string(f.from) + "->" +
                     std::to_string(f.to) + " carries " +
                     std::to_string(f.amount));
      continue;
    }
    if (role[f.from] != 1 || role[f.to] != 2) {
      report.add("flow-direction",
                 "entry " + std::to_string(f.from) + "->" +
                     std::to_string(f.to) +
                     " does not run overloaded->under-utilized");
    }
    outflow[f.from] += f.amount;
    inflow[f.to] += f.amount;
  }
  for (std::size_t h = 0; h < m; ++h) {
    if (outflow[h] > initial_phi[h]) {
      report.add("flow-exceeds-slack",
                 "hotspot " + std::to_string(h) + " sends " +
                     std::to_string(outflow[h]) + " > phi " +
                     std::to_string(initial_phi[h]));
    }
    if (inflow[h] > initial_phi[h]) {
      report.add("flow-exceeds-slack",
                 "hotspot " + std::to_string(h) + " receives " +
                     std::to_string(inflow[h]) + " > phi " +
                     std::to_string(initial_phi[h]));
    }
  }
}

}  // namespace ccdn
