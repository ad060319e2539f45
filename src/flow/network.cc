#include "flow/network.h"

#include <algorithm>

namespace ccdn {

namespace {

/// Smallest slice reservation handed to a node's first arc. Most scaffold
/// nodes carry 2 arcs (source arc + sink arc pair halves land on separate
/// nodes), senders grow geometrically from here.
constexpr std::uint32_t kMinSliceCap = 4;

}  // namespace

FlowNetwork::FlowNetwork(std::size_t num_nodes) : nodes_(num_nodes) {}

NodeId FlowNetwork::add_node() {
  nodes_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void FlowNetwork::relocate(NodeId node, std::uint32_t min_cap) {
  ArcRange& r = nodes_[node];
  std::uint32_t new_cap = std::max(kMinSliceCap, r.cap * 2);
  while (new_cap < min_cap) new_cap *= 2;
  const auto new_begin = static_cast<std::uint32_t>(arc_pool_.size());
  arc_pool_.resize(arc_pool_.size() + new_cap);
  // The resize may have reallocated the pool, but r's indices stay valid:
  // copy the live ids from the old slice region into the new tail.
  std::copy(arc_pool_.begin() + r.begin, arc_pool_.begin() + r.end,
            arc_pool_.begin() + new_begin);
  r.end = new_begin + (r.end - r.begin);
  r.begin = new_begin;
  r.cap = new_cap;
}

void FlowNetwork::append_arc(NodeId node, EdgeId arc) {
  ArcRange& r = nodes_[node];
  if (r.end - r.begin == r.cap) {
    relocate(node, r.cap + 1);
  }
  arc_pool_[nodes_[node].end++] = arc;
}

EdgeId FlowNetwork::add_edge(NodeId from, NodeId to, std::int64_t capacity,
                             double cost) {
  CCDN_REQUIRE(from < nodes_.size() && to < nodes_.size(),
               "edge endpoint out of range");
  CCDN_REQUIRE(capacity >= 0, "negative capacity");
  const auto id = static_cast<EdgeId>(to_.size());
  from_.push_back(from);
  to_.push_back(to);
  residual_.push_back(capacity);
  cost_.push_back(cost);
  from_.push_back(to);
  to_.push_back(from);
  residual_.push_back(0);
  cost_.push_back(-cost);
  original_caps_.push_back(capacity);
  original_caps_.push_back(0);
  append_arc(from, id);
  append_arc(to, id + 1);
  return id;
}

std::int64_t FlowNetwork::flow(EdgeId e) const {
  CCDN_REQUIRE(e < to_.size() && (e & 1u) == 0, "not a forward edge id");
  return original_caps_[e] - residual_[e];
}

std::int64_t FlowNetwork::original_capacity(EdgeId e) const {
  CCDN_REQUIRE(e < to_.size(), "edge id out of range");
  return original_caps_[e];
}

void FlowNetwork::reset_flows() noexcept {
  for (std::size_t e = 0; e < residual_.size(); ++e) {
    residual_[e] = original_caps_[e];
  }
}

void FlowNetwork::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  from_.reserve(2 * edges);
  to_.reserve(2 * edges);
  residual_.reserve(2 * edges);
  cost_.reserve(2 * edges);
  original_caps_.reserve(2 * edges);
  arc_pool_.reserve(2 * edges);
}

void FlowNetwork::clear(std::size_t num_nodes) {
  // Keep surviving nodes' slice reservations but re-pack them tightly in
  // node order: every slice is empty after a clear, so the re-pack is a
  // pure cursor walk, and it reclaims both relocation slack and the slices
  // of dropped nodes — repeated clear/build cycles of the same shape touch
  // the same pool bytes every time instead of growing the pool.
  nodes_.resize(num_nodes);
  std::uint32_t cursor = 0;
  for (ArcRange& r : nodes_) {
    r.begin = r.end = cursor;
    cursor += r.cap;
  }
  arc_pool_.resize(cursor);
  from_.clear();
  to_.clear();
  residual_.clear();
  cost_.clear();
  original_caps_.clear();
}

void FlowNetwork::truncate(const Checkpoint& cp) {
  CCDN_REQUIRE(cp.nodes <= nodes_.size() && cp.stored_edges <= to_.size(),
               "checkpoint ahead of network");
  CCDN_REQUIRE(cp.stored_edges % 2 == 0, "checkpoint splits an edge pair");
  // Per-node slices are appended in increasing id order, so removed edges
  // form each slice's tail.
  for (std::size_t node = 0; node < cp.nodes; ++node) {
    ArcRange& r = nodes_[node];
    while (r.end > r.begin && arc_pool_[r.end - 1] >= cp.stored_edges) {
      --r.end;
    }
  }
  nodes_.resize(cp.nodes);
  // Reclaim the pool tail the dropped nodes' slices occupied (transient
  // guide nodes are appended last, so their slices sit at the tail); the θ
  // sweep's truncate-per-step loop then reuses the same bytes every epoch
  // instead of growing the pool for the life of a slot's scaffold.
  std::uint32_t tail = 0;
  for (const ArcRange& r : nodes_) tail = std::max(tail, r.begin + r.cap);
  arc_pool_.resize(tail);
  from_.resize(cp.stored_edges);
  to_.resize(cp.stored_edges);
  residual_.resize(cp.stored_edges);
  cost_.resize(cp.stored_edges);
  original_caps_.resize(cp.stored_edges);
}

void FlowNetwork::freeze_residuals() noexcept {
  // Backward arcs sit at odd ids (add_edge interleaves them).
  for (std::size_t e = 1; e < residual_.size(); e += 2) {
    residual_[e] = 0;
  }
}

void FlowNetwork::rebase_flows() noexcept {
  for (std::size_t e = 0; e < residual_.size(); ++e) {
    original_caps_[e] = residual_[e];
  }
}

void FlowNetwork::drop_dead_arcs() noexcept {
  for (ArcRange& r : nodes_) {
    std::uint32_t out = r.begin;
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      const EdgeId e = arc_pool_[i];
      if (residual_[e] > 0 || residual_[e ^ 1u] > 0) {
        arc_pool_[out++] = e;
      }
    }
    r.end = out;
  }
}

void FlowNetwork::drop_arcs_at_or_after(EdgeId first) noexcept {
  for (ArcRange& r : nodes_) {
    std::uint32_t out = r.begin;
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      const EdgeId e = arc_pool_[i];
      if (e < first) arc_pool_[out++] = e;
    }
    r.end = out;
  }
}

void FlowNetwork::drop_terminal_arcs(NodeId source, NodeId sink) noexcept {
  nodes_[sink].end = nodes_[sink].begin;
  for (ArcRange& r : nodes_) {
    std::uint32_t out = r.begin;
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      const EdgeId e = arc_pool_[i];
      if (to_[e] != source) arc_pool_[out++] = e;
    }
    r.end = out;
  }
}

void FlowNetwork::focus_out_edges(NodeId node, std::span<const EdgeId> arcs) {
  CCDN_REQUIRE(node < nodes_.size(), "node id out of range");
  if (arcs.size() > nodes_[node].cap) {
    relocate(node, static_cast<std::uint32_t>(arcs.size()));
  }
  ArcRange& r = nodes_[node];
  std::copy(arcs.begin(), arcs.end(), arc_pool_.begin() + r.begin);
  r.end = r.begin + static_cast<std::uint32_t>(arcs.size());
}

void FlowNetwork::restore_arcs(const Checkpoint& cp) {
  CCDN_REQUIRE(cp.nodes <= nodes_.size() && cp.stored_edges <= to_.size(),
               "checkpoint ahead of network");
  // Counting pass: how many arcs each retained node will hold. Every arc
  // with id < cp.stored_edges has both endpoints < cp.nodes (edges never
  // reference nodes added after them), so only those slices change.
  restore_counts_.assign(cp.nodes, 0);
  for (EdgeId e = 0; e < cp.stored_edges; ++e) {
    ++restore_counts_[from_[e]];
  }
  for (std::size_t n = 0; n < cp.nodes; ++n) {
    ArcRange& r = nodes_[n];
    if (restore_counts_[n] > r.cap) {
      relocate(static_cast<NodeId>(n), restore_counts_[n]);
    }
    nodes_[n].end = nodes_[n].begin;  // relocate may have moved the slice
  }
  // Fill pass in id order: slices are disjoint, so each node's arcs land
  // ascending — exactly the adjacency a fresh build would produce.
  for (EdgeId e = 0; e < cp.stored_edges; ++e) {
    arc_pool_[nodes_[from_[e]].end++] = e;
  }
}

void FlowNetwork::compact() {
  std::vector<EdgeId> fresh;
  fresh.reserve(to_.size());
  for (ArcRange& r : nodes_) {
    const auto begin = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), arc_pool_.begin() + r.begin,
                 arc_pool_.begin() + r.end);
    r.cap = r.end - r.begin;
    r.begin = begin;
    r.end = static_cast<std::uint32_t>(fresh.size());
  }
  arc_pool_ = std::move(fresh);
}

void FlowNetwork::push(EdgeId e, std::int64_t amount) {
  CCDN_REQUIRE(e < to_.size(), "edge id out of range");
  CCDN_REQUIRE(amount >= 0 && amount <= residual_[e],
               "push exceeds residual capacity");
  residual_[e] -= amount;
  residual_[paired(e)] += amount;
}


}  // namespace ccdn
