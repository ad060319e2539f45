#include "flow/mcmf.h"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

namespace ccdn {

namespace {

// Path costs are sums of km distances; treat differences below this as zero
// to keep the search robust against floating-point noise.
constexpr double kEps = 1e-9;

std::int64_t bottleneck_along_path(const FlowNetwork& net, NodeId source,
                                   NodeId sink,
                                   std::span<const EdgeId> parent_edge) {
  std::int64_t bottleneck = std::numeric_limits<std::int64_t>::max();
  NodeId node = sink;
  while (node != source) {
    const EdgeId e = parent_edge[node];
    CCDN_ASSERT(net.arc_to(e) == node, "parent edge does not enter its node");
    CCDN_ASSERT(net.residual(e) > 0, "saturated edge on augmenting path");
    bottleneck = std::min(bottleneck, net.residual(e));
    node = net.arc_from(e);
  }
  return bottleneck;
}

double apply_path(FlowNetwork& net, NodeId source, NodeId sink,
                  std::span<const EdgeId> parent_edge, std::int64_t amount) {
  double path_cost = 0.0;
  NodeId node = sink;
  while (node != source) {
    const EdgeId e = parent_edge[node];
    CCDN_ASSERT(amount <= net.residual(e),
                "augmenting beyond the path bottleneck");
    path_cost += net.cost(e);
    node = net.arc_from(e);
    net.push(e, amount);
  }
  return path_cost;
}

/// Successive-shortest-path engine behind MinCostMaxFlow: owns the SPFA
/// search buffers (distance/parent labels, queue flags and the queue) for
/// the augmentations of one solve.
class McmfSolver {
 public:
  explicit McmfSolver(std::size_t num_nodes) : state_(num_nodes) {}

  /// Min-cost augmentation from the current residual state until no
  /// source→sink path remains or `flow_limit` units have been routed.
  McmfResult augment(FlowNetwork& net, NodeId source, NodeId sink,
                     std::int64_t flow_limit);

 private:
  /// Scratch buffers reused across augmentations.
  /// Per-node labels are validity-stamped instead of cleared: a label is
  /// live only when its stamp equals the current search's, so starting a
  /// search is O(1) instead of O(n) fills.
  struct SearchState {
    explicit SearchState(std::size_t n)
        : dist(n), parent_edge(n), seen(n, 0), in_queue(n, 0), queue(n + 1) {}

    std::vector<double> dist;
    std::vector<EdgeId> parent_edge;
    std::vector<std::uint32_t> seen;  // stamp: dist/parent valid
    std::vector<char> in_queue;       // all-zero between searches
    std::vector<NodeId> queue;        // deque storage
    std::uint32_t stamp = 0;

    /// Open a new search: bump the stamp, invalidating all labels.
    void begin_search() {
      if (++stamp == 0) {  // wrapped: old stamps would alias as live
        std::fill(seen.begin(), seen.end(), 0);
        stamp = 1;
      }
    }
  };

  bool spfa(const FlowNetwork& net, NodeId source, NodeId sink);

  SearchState state_;
};

}  // namespace

bool McmfSolver::spfa(const FlowNetwork& net, NodeId source, NodeId sink) {
  state_.begin_search();
  const std::uint32_t stamp = state_.stamp;
  // The in_queue flags bound occupancy at n, so a ring buffer of n + 1 slots
  // gives deque semantics (SLF needs push_front) without deque allocations.
  // Every enqueued node is eventually dequeued, so the flags are all zero
  // again when the search ends and never need resetting.
  const std::size_t cap = state_.queue.size();
  std::size_t head = 0;
  std::size_t tail = 0;
  const auto queue_empty = [&] { return head == tail; };
  const auto push_back = [&](NodeId v) {
    state_.queue[tail] = v;
    tail = (tail + 1) % cap;
  };
  const auto push_front = [&](NodeId v) {
    head = (head + cap - 1) % cap;
    state_.queue[head] = v;
  };

  state_.dist[source] = 0.0;
  state_.seen[source] = stamp;
  push_back(source);
  state_.in_queue[source] = 1;
  while (!queue_empty()) {
    const NodeId node = state_.queue[head];
    head = (head + 1) % cap;
    state_.in_queue[node] = 0;
    for (const EdgeId e : net.out_edges(node)) {
      if (net.residual(e) <= 0) continue;
      const NodeId to = net.arc_to(e);
      const double candidate = state_.dist[node] + net.cost(e);
      if (state_.seen[to] != stamp || candidate + kEps < state_.dist[to]) {
        state_.dist[to] = candidate;
        state_.parent_edge[to] = e;
        state_.seen[to] = stamp;
        if (!state_.in_queue[to]) {
          // SLF heuristic: jump the queue when promising.
          if (!queue_empty() && candidate < state_.dist[state_.queue[head]]) {
            push_front(to);
          } else {
            push_back(to);
          }
          state_.in_queue[to] = 1;
        }
      }
    }
  }
  return state_.seen[sink] == stamp;
}

McmfResult McmfSolver::augment(FlowNetwork& net, NodeId source, NodeId sink,
                               std::int64_t flow_limit) {
  CCDN_REQUIRE(source < net.num_nodes() && sink < net.num_nodes(),
               "source/sink out of range");
  CCDN_REQUIRE(source != sink, "source equals sink");
  CCDN_REQUIRE(flow_limit >= 0, "negative flow limit");

  McmfResult result;
  while (result.flow < flow_limit) {
    if (!spfa(net, source, sink)) break;
    const std::int64_t room = flow_limit - result.flow;
    const std::int64_t amount = std::min(
        room, bottleneck_along_path(net, source, sink, state_.parent_edge));
    CCDN_ENSURE(amount > 0, "augmenting path with zero bottleneck");
    const double path_cost =
        apply_path(net, source, sink, state_.parent_edge, amount);
    result.flow += amount;
    result.cost += path_cost * static_cast<double>(amount);
  }
  return result;
}

McmfResult MinCostMaxFlow::solve(FlowNetwork& net, NodeId source,
                                 NodeId sink) {
  return solve_up_to(net, source, sink,
                     std::numeric_limits<std::int64_t>::max());
}

McmfResult MinCostMaxFlow::solve_up_to(FlowNetwork& net, NodeId source,
                                       NodeId sink, std::int64_t flow_limit) {
  McmfSolver solver(net.num_nodes());
  return solver.augment(net, source, sink, flow_limit);
}

}  // namespace ccdn
