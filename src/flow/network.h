// Directed flow network with residual edges.
//
// RBCAer models request balancing as a min-cost max-flow problem between
// overloaded and under-utilized hotspots (paper §IV-A); this is the shared
// graph representation for the Dinic and MCMF solvers.
//
// Storage is laid out for the solvers' inner loops (DESIGN.md §3.11):
//
//  - Edge fields live in parallel SoA arrays (to_/residual_/cost_/from_)
//    instead of an interleaved array of structs, so a relax loop touches
//    only the bytes it reads. The Edge struct survives as a by-value
//    compatibility snapshot for audits, decomposition, and tests.
//  - Adjacency is a CSR-style slice table: every node owns a contiguous
//    [begin, end) slice of one shared arc-id pool (arc_pool_), with a
//    reserved capacity so per-node appends are a bump, not a per-node
//    heap allocation. Slices relocate with amortized doubling when they
//    outgrow their reservation.
//
// The network is append-only: each θ step builds a fresh one
// (core/balance_graph.h). tests/flow/network_test.cc cross-checks every
// adjacency mutator against a vector-of-vectors reference model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace ccdn {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

class FlowNetwork {
 public:
  /// Network with `num_nodes` nodes and no edges.
  explicit FlowNetwork(std::size_t num_nodes);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return to_.size() / 2;
  }

  /// Append one node; returns its id.
  NodeId add_node();

  /// Add a directed edge with capacity and per-unit cost; the paired
  /// residual edge (capacity 0, cost -cost) is created automatically.
  /// Returns the forward edge id. Requires capacity >= 0.
  EdgeId add_edge(NodeId from, NodeId to, std::int64_t capacity, double cost);

  /// Value snapshot of one stored arc. The backing store is SoA; this
  /// struct is assembled on demand by edge() for readers that want all
  /// fields at once. 8-byte members first so the struct carries no padding.
  struct Edge {
    std::int64_t capacity = 0;  // residual capacity
    double cost = 0.0;
    NodeId from = 0;
    NodeId to = 0;
  };
  static_assert(sizeof(Edge) == 24 && alignof(Edge) == 8,
                "Edge snapshot must stay three words: 8-byte members lead so "
                "no interior padding appears");

  [[nodiscard]] Edge edge(EdgeId e) const {
    CCDN_REQUIRE(e < to_.size(), "edge id out of range");
    return {residual_[e], cost_[e], from_[e], to_[e]};
  }

  // --- SoA hot accessors (solver inner loops; debug-checked bounds) ---
  [[nodiscard]] NodeId arc_from(EdgeId e) const noexcept {
    CCDN_ASSERT(e < from_.size(), "edge id out of range");
    return from_[e];
  }
  [[nodiscard]] NodeId arc_to(EdgeId e) const noexcept {
    CCDN_ASSERT(e < to_.size(), "edge id out of range");
    return to_[e];
  }
  [[nodiscard]] std::int64_t residual(EdgeId e) const noexcept {
    CCDN_ASSERT(e < residual_.size(), "edge id out of range");
    return residual_[e];
  }
  [[nodiscard]] double cost(EdgeId e) const noexcept {
    CCDN_ASSERT(e < cost_.size(), "edge id out of range");
    return cost_[e];
  }
  /// Flow currently pushed through a *forward* edge.
  [[nodiscard]] std::int64_t flow(EdgeId e) const;
  /// Original capacity of a forward edge.
  [[nodiscard]] std::int64_t original_capacity(EdgeId e) const;

  /// Edge ids (forward and residual) leaving a node, as a view into the
  /// shared CSR arc pool. Invalidated by any add_edge, including one on a
  /// *different* node, since slices share one pool.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId node) const {
    CCDN_REQUIRE(node < nodes_.size(), "node id out of range");
    const ArcRange& r = nodes_[node];
    return {arc_pool_.data() + r.begin, r.end - r.begin};
  }

  // --- solver interface (residual manipulation) ---
  [[nodiscard]] EdgeId paired(EdgeId e) const noexcept { return e ^ 1u; }
  void push(EdgeId e, std::int64_t amount);

 private:
  /// One node's slice of arc_pool_: arcs live in [begin, end), with
  /// [begin, begin + cap) reserved. Appends past the reservation relocate
  /// the slice to the pool's end with doubled capacity (amortized O(1));
  /// the abandoned region stays as slack.
  struct ArcRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t cap = 0;
  };

  void append_arc(NodeId node, EdgeId arc);
  /// Move `node`'s slice to the pool tail with room for `min_cap` arcs.
  void relocate(NodeId node, std::uint32_t min_cap);

  // SoA edge storage; index = arc id, forward arcs even, residual odd.
  std::vector<NodeId> from_;
  std::vector<NodeId> to_;
  std::vector<std::int64_t> residual_;
  std::vector<double> cost_;
  std::vector<std::int64_t> original_caps_;  // per stored edge

  // CSR adjacency: per-node slices over one shared arc-id pool.
  std::vector<ArcRange> nodes_;
  std::vector<EdgeId> arc_pool_;
};

}  // namespace ccdn
