#include "flow/mcmf.h"

#include <algorithm>
#include <functional>
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

/// Successive-shortest-path engine behind MinCostMaxFlow: owns the search
/// buffers (distance/parent/visited arrays, the SPFA queue flags and the
/// Dijkstra heap) and the node potentials for the augmentations of one
/// solve. Starting from zero potentials is valid because every forward
/// cost is non-negative.
class McmfSolver {
 public:
  McmfSolver(McmfStrategy strategy, std::size_t num_nodes)
      : strategy_(strategy), state_(num_nodes), potential_(num_nodes, 0.0) {}

  /// Min-cost augmentation from the current residual state until no
  /// source→sink path remains or `flow_limit` units have been routed.
  McmfResult augment(FlowNetwork& net, NodeId source, NodeId sink,
                     std::int64_t flow_limit);

 private:
  /// Scratch buffers shared by the SPFA and Dijkstra searches, reused
  /// across augmentations.
  /// Per-node labels are validity-stamped instead of cleared: a label is
  /// live only when its stamp equals the current search's, so starting a
  /// search is O(1) instead of five O(n) fills.
  struct SearchState {
    explicit SearchState(std::size_t n)
        : dist(n), parent_edge(n), seen(n, 0), settled(n, 0),
          in_queue(n, 0), queue(n + 1) {}

    std::vector<double> dist;
    std::vector<EdgeId> parent_edge;
    std::vector<std::uint32_t> seen;     // stamp: dist/parent valid
    std::vector<std::uint32_t> settled;  // stamp: Dijkstra label final
    std::vector<NodeId> touched;  // nodes seen this search, in seen order
    std::vector<char> in_queue;   // SPFA membership; all-zero between runs
    std::vector<NodeId> queue;    // SPFA deque storage
    std::vector<std::pair<double, NodeId>> heap;  // Dijkstra binary heap
    std::uint32_t stamp = 0;

    /// Open a new search: bump the stamp, invalidating all labels.
    void begin_search() {
      if (++stamp == 0) {  // wrapped: old stamps would alias as live
        std::fill(seen.begin(), seen.end(), 0);
        std::fill(settled.begin(), settled.end(), 0);
        stamp = 1;
      }
      touched.clear();
    }
  };

  bool spfa(const FlowNetwork& net, NodeId source, NodeId sink);
  bool dijkstra(const FlowNetwork& net, NodeId source, NodeId sink);
  void update_potentials(NodeId sink);

  McmfStrategy strategy_;
  SearchState state_;
  std::vector<double> potential_;
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
  state_.touched.push_back(source);
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
        if (state_.seen[to] != stamp) {
          state_.touched.push_back(to);
        }
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

bool McmfSolver::dijkstra(const FlowNetwork& net, NodeId source, NodeId sink) {
  state_.begin_search();
  const std::uint32_t stamp = state_.stamp;
  auto& heap = state_.heap;
  heap.clear();
  const auto min_first = std::greater<>{};
  state_.dist[source] = 0.0;
  state_.seen[source] = stamp;
  state_.touched.push_back(source);
  heap.emplace_back(0.0, source);
  while (!heap.empty()) {
    // Early settle: once the sink is seen and nothing left in the heap can
    // beat its tentative label, that label is final — skip the remaining
    // pops (typically a plateau of equal-cost senders).
    if (state_.seen[sink] == stamp &&
        heap.front().first >= state_.dist[sink]) {
      state_.settled[sink] = stamp;
      return true;
    }
    const auto [d, node] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), min_first);
    heap.pop_back();
    if (state_.settled[node] == stamp) continue;
    state_.settled[node] = stamp;
    // Early exit: once the sink settles its shortest path is final, and
    // every node still in the heap has a tentative distance >= dist[sink],
    // which is exactly what update_potentials' capping rule needs. This is
    // the payoff of carrying valid potentials: the search stops at the
    // sink instead of settling the whole graph.
    if (node == sink) return true;
    for (const EdgeId e : net.out_edges(node)) {
      const NodeId to = net.arc_to(e);
      if (net.residual(e) <= 0 || state_.settled[to] == stamp) continue;
      double reduced = net.cost(e) + potential_[node] - potential_[to];
      // Valid potentials keep every residual reduced cost non-negative; a
      // real violation means the potential update went wrong and Dijkstra's
      // greedy settling would silently return suboptimal (non-min-cost)
      // paths, so fail loudly instead of clamping it away.
      CCDN_ENSURE(reduced >= -kEps, "negative reduced cost: stale potentials");
      reduced = std::max(0.0, reduced);  // absorb float noise within kEps
      const double candidate = d + reduced;
      // Prune labels that cannot beat the sink's tentative distance: any
      // path extending them costs at least as much as the path already
      // recorded to the sink, and update_potentials caps unreached nodes at
      // dist[sink], so skipping the record keeps the potentials valid.
      if (to != sink && state_.seen[sink] == stamp &&
          candidate >= state_.dist[sink]) {
        continue;
      }
      if (state_.seen[to] != stamp || candidate + kEps < state_.dist[to]) {
        if (state_.seen[to] != stamp) {
          state_.touched.push_back(to);
        }
        state_.dist[to] = candidate;
        state_.parent_edge[to] = e;
        state_.seen[to] = stamp;
        // Dead-end prune: a node with no outgoing arcs cannot extend any
        // path, so record its label (update_potentials needs it) but skip
        // the heap.
        if (to == sink || !net.out_edges(to).empty()) {
          heap.emplace_back(candidate, to);
          std::push_heap(heap.begin(), heap.end(), min_first);
        }
      }
    }
  }
  return state_.settled[sink] == stamp;
}

void McmfSolver::update_potentials(NodeId sink) {
  const std::uint32_t stamp = state_.stamp;
  if (state_.settled[sink] == stamp) {
    // Johnson's update adds min(dist, dist[sink]) to every seen node and
    // dist[sink] to every other node: the cap is valid because heap
    // residents sit at >= dist[sink], the seen nodes below that are
    // dead-end-pruned (no outgoing arcs, so their low label constrains
    // nothing), and every unseen node's skipped relaxation was
    // sink-bound-pruned. But a *uniform* shift cancels out of every
    // reduced cost, so subtract the dist[sink] baseline and only the seen
    // nodes need touching: O(|seen|) instead of O(n). Absolute potentials
    // drift (the source's sinks by dist[sink] per search); only
    // differences are ever read.
    const double d_sink = state_.dist[sink];
    for (const NodeId v : state_.touched) {
      potential_[v] += std::min(state_.dist[v], d_sink) - d_sink;
    }
    return;
  }
  // Exhausted search (no path to the sink): settled nodes take their final
  // distance, everything else the largest settled distance — again shifted
  // by that baseline so untouched nodes stay untouched. Edges among
  // unreached nodes shift uniformly, edges from unreached to reached only
  // gain slack, and reached→unreached residual edges cannot exist here.
  double max_reached = 0.0;
  for (const NodeId v : state_.touched) {
    if (state_.settled[v] == stamp) {
      max_reached = std::max(max_reached, state_.dist[v]);
    }
  }
  for (const NodeId v : state_.touched) {
    if (state_.settled[v] == stamp) {
      potential_[v] += state_.dist[v] - max_reached;
    }
  }
}

McmfResult McmfSolver::augment(FlowNetwork& net, NodeId source, NodeId sink,
                               std::int64_t flow_limit) {
  CCDN_REQUIRE(source < net.num_nodes() && sink < net.num_nodes(),
               "source/sink out of range");
  CCDN_REQUIRE(source != sink, "source equals sink");
  CCDN_REQUIRE(flow_limit >= 0, "negative flow limit");

  McmfResult result;
  while (result.flow < flow_limit) {
    if (strategy_ == McmfStrategy::kSpfa) {
      if (!spfa(net, source, sink)) break;
    } else {
      if (!dijkstra(net, source, sink)) break;
      update_potentials(sink);
    }
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

McmfResult MinCostMaxFlow::solve(FlowNetwork& net, NodeId source, NodeId sink,
                                 McmfStrategy strategy) {
  return solve_up_to(net, source, sink,
                     std::numeric_limits<std::int64_t>::max(), strategy);
}

McmfResult MinCostMaxFlow::solve_up_to(FlowNetwork& net, NodeId source,
                                       NodeId sink, std::int64_t flow_limit,
                                       McmfStrategy strategy) {
  McmfSolver solver(strategy, net.num_nodes());
  return solver.augment(net, source, sink, flow_limit);
}

}  // namespace ccdn
