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

void FlowNetwork::push(EdgeId e, std::int64_t amount) {
  CCDN_REQUIRE(e < to_.size(), "edge id out of range");
  CCDN_REQUIRE(amount >= 0 && amount <= residual_[e],
               "push exceeds residual capacity");
  residual_[e] -= amount;
  residual_[paired(e)] += amount;
}

}  // namespace ccdn
