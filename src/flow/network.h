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
//    outgrow their reservation, and clear() re-packs the pool tightly so
//    a rebuild-per-slot loop reuses the same bytes every slot.
//
// The network is append-only, with three lifecycle helpers for callers that
// rebuild graphs in a hot loop (the θ sweep): reserve()/clear() to stop the
// per-build allocator churn, checkpoint()/truncate() to roll transient
// structure (per-θ guide nodes) back off a persistent scaffold, and
// freeze_residuals() to commit the current flows so later augmentation
// cannot reroute them. tests/flow/network_test.cc cross-checks every
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
  /// shared CSR arc pool. Invalidated by any adjacency mutation (add_edge,
  /// drop_*, focus_out_edges, restore_arcs, compact, truncate, clear) —
  /// including add_edge on a *different* node, since slices share one pool.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId node) const {
    CCDN_REQUIRE(node < nodes_.size(), "node id out of range");
    const ArcRange& r = nodes_[node];
    return {arc_pool_.data() + r.begin, r.end - r.begin};
  }

  /// Reset all flows to zero (restores capacities).
  void reset_flows() noexcept;

  /// Pre-allocate room for `nodes` nodes and `edges` forward edges, so a
  /// build loop of that size performs no further allocations.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Reset to `num_nodes` isolated nodes, dropping every edge but keeping
  /// the allocated buffers for reuse. Surviving nodes keep their arc-slice
  /// reservations (re-packed tightly, so repeated clear/build cycles reuse
  /// the same pool bytes instead of fragmenting it); nodes gained start
  /// with no reservation.
  void clear(std::size_t num_nodes);

  /// Structural snapshot for truncate().
  struct Checkpoint {
    std::size_t nodes = 0;
    std::size_t stored_edges = 0;  // internal count: forward + residual
  };
  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    return {nodes_.size(), to_.size()};
  }

  /// Roll the network back to `cp`: every node and edge added after the
  /// checkpoint is removed. Flows on surviving edges are untouched — the
  /// residual state of the retained prefix is exactly what it was, which is
  /// what lets a θ sweep keep committed flow on a persistent scaffold while
  /// re-deriving transient structure each step. Surviving nodes keep their
  /// slice reservations, so the next transient build appends into the same
  /// pool bytes.
  void truncate(const Checkpoint& cp);

  /// Zero the residual (backward) arc of every edge, freezing the current
  /// flows in place: committed flow can no longer be rerouted by later
  /// augmentation, and every remaining positive-capacity arc is a forward
  /// arc with non-negative cost (so zero node potentials become valid
  /// again; see DESIGN.md §3.7). flow() readings are unaffected and
  /// reset_flows() still restores the original capacities.
  void freeze_residuals() noexcept;

  /// Make the current capacities the new flow() baseline (zeroing every
  /// reading). The θ sweep's transient regime truncates its pair arcs
  /// each step and re-solves from zero on the frozen scaffold, so without
  /// a rebase the scaffold arcs report cumulative multi-step flow while
  /// the freshly appended pair arcs report only the current step's — a
  /// storage-walking conservation audit would see phantom imbalance at
  /// every drained endpoint. After a rebase, flow() measures the new
  /// epoch only. Note reset_flows() restores to the rebased baseline.
  void rebase_flows() noexcept;

  /// Remove arcs whose pair is dead — zero residual in both directions —
  /// from the adjacency slices, so searches stop scanning them. Only sound
  /// after freeze_residuals(): with the backward arc permanently zero, the
  /// forward residual can never grow back. Edge storage and ids are
  /// untouched (flow() and edge() keep working); only out_edges() shrinks.
  /// Relative order inside each slice is preserved, so a later truncate()
  /// still pops the transient tail correctly.
  void drop_dead_arcs() noexcept;

  /// Remove every arc with id >= `first` from the adjacency slices, keeping
  /// edge storage (ids, flow() readings) intact. Used by the θ sweep after
  /// a step commits: exhaustion proved every surviving pair arc unusable —
  /// its residual is zero or an endpoint's slack is — and slack never
  /// grows within a slot, so the next step only needs the scaffold plus
  /// its own arrivals.
  void drop_arcs_at_or_after(EdgeId first) noexcept;

  /// Remove arcs that can never lie on a source→sink path — arcs entering
  /// `source` and arcs leaving `sink` — from the adjacency slices. An
  /// augmenting path visits the source first and the sink last, so such
  /// arcs would close a cycle; dropping them also turns nodes whose only
  /// remaining arcs pointed back at the source into searchable dead ends.
  void drop_terminal_arcs(NodeId source, NodeId sink) noexcept;

  /// Replace `node`'s adjacency slice with exactly `arcs`. The caller
  /// asserts the omitted arcs cannot carry flow right now (their heads are
  /// dead ends); the θ sweep uses this to narrow the source to the current
  /// step's arrival senders. `arcs` must not alias this network's pool
  /// (callers pass their own buffers). restore_arcs() undoes any
  /// drop/focus.
  void focus_out_edges(NodeId node, std::span<const EdgeId> arcs);

  /// Rebuild the adjacency slices of the first `cp.nodes` nodes from edge
  /// storage, restoring every arc with id < cp.stored_edges that the
  /// drop_*/focus_out_edges compactions removed. The result is exactly the
  /// adjacency a fresh build of those edges would produce (ids ascending
  /// per node). Arcs with id >= cp.stored_edges leaving those nodes are
  /// discarded — pair with truncate(cp) when later edges exist. Slices
  /// whose reservation already fits are refilled in place; only nodes that
  /// grew past their reservation relocate.
  void restore_arcs(const Checkpoint& cp);

  /// Re-pack every adjacency slice tightly into a fresh pool in node order
  /// (layout-only: out_edges() contents and order are unchanged, slack
  /// reservations are dropped). Rarely needed — clear() already re-packs —
  /// but available to callers that mutated heavily and want the pool
  /// minimal before a long read-only phase.
  void compact();

  /// Slots of CSR pool currently reserved (live + slack + fragmentation);
  /// observability for the reuse tests.
  [[nodiscard]] std::size_t arc_pool_slots() const noexcept {
    return arc_pool_.size();
  }

  // --- solver interface (residual manipulation) ---
  [[nodiscard]] EdgeId paired(EdgeId e) const noexcept { return e ^ 1u; }
  void push(EdgeId e, std::int64_t amount);

 private:
  /// One node's slice of arc_pool_: arcs live in [begin, end), with
  /// [begin, begin + cap) reserved. Appends past the reservation relocate
  /// the slice to the pool's end with doubled capacity (amortized O(1));
  /// the abandoned region becomes slack until the next clear()/compact().
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
  std::vector<std::uint32_t> restore_counts_;  // restore_arcs scratch
};

}  // namespace ccdn
