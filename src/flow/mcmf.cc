#include "flow/mcmf.h"

#include <algorithm>
#include <cmath>
#include <functional>
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

}  // namespace

bool McmfSolver::spfa(const FlowNetwork& net, NodeId source, NodeId sink) {
  const std::size_t n = net.num_nodes();
  state_.begin_search(n);
  const std::uint32_t stamp = state_.stamp;
  // The in_queue flags bound occupancy at n, so a ring buffer of n + 1 slots
  // gives deque semantics (SLF needs push_front) without deque allocations.
  // Every enqueued node is eventually dequeued, so the flags are all zero
  // again when the search ends and never need resetting.
  const std::size_t cap = n + 1;
  state_.queue.resize(cap);
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
  const std::size_t n = net.num_nodes();
  state_.begin_search(n);
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
        // the heap. With drop_terminal_arcs this covers every sender whose
        // candidate pairs are all committed or not yet visible.
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

void McmfSolver::reset_potentials(std::size_t num_nodes) {
  potential_.assign(num_nodes, 0.0);
}

void McmfSolver::reprice_from(const FlowNetwork& net, EdgeId first_edge,
                              std::span<const EdgeId> clamp_arcs) {
  CCDN_REQUIRE(potential_.size() == net.num_nodes(),
               "potentials not sized for this network");
  // The in_queue flags are all zero between runs (every enqueued node is
  // dequeued before this returns), so only grow them: shrinking would leave
  // a later search on a larger network indexing past their end.
  const std::size_t n = net.num_nodes();
  if (state_.in_queue.size() < n) state_.in_queue.resize(n, 0);
  const std::size_t cap = n + 1;
  state_.queue.resize(cap);
  std::size_t head = 0;
  std::size_t tail = 0;
  const auto enqueue = [&](NodeId v) {
    if (state_.in_queue[v]) return;
    state_.queue[tail] = v;
    tail = (tail + 1) % cap;
    state_.in_queue[v] = 1;
  };

  // Expected maintenance first: clamp the heads of the named old arcs down
  // to tail potential + cost, so the suffix scan below already sees the
  // corrected values. Not counted as a reprice — drift on arcs into
  // dormant nodes is the normal price of the O(|seen|) potential update.
  for (const EdgeId e : clamp_arcs) {
    if (net.residual(e) <= 0) continue;
    const double candidate = potential_[net.arc_from(e)] + net.cost(e);
    if (candidate + kEps < potential_[net.arc_to(e)]) {
      potential_[net.arc_to(e)] = candidate;
      enqueue(net.arc_to(e));
    }
  }

  bool violated = false;
  for (EdgeId e = first_edge; e < 2 * net.num_edges(); ++e) {
    if (net.residual(e) <= 0) continue;
    const double candidate = potential_[net.arc_from(e)] + net.cost(e);
    if (candidate + kEps < potential_[net.arc_to(e)]) {
      potential_[net.arc_to(e)] = candidate;
      enqueue(net.arc_to(e));
      violated = true;
    }
  }
  if (head == tail) return;  // everything already prices non-negatively
  if (violated) ++reprices_;
  while (head != tail) {
    const NodeId node = state_.queue[head];
    head = (head + 1) % cap;
    state_.in_queue[node] = 0;
    for (const EdgeId e : net.out_edges(node)) {
      if (net.residual(e) <= 0) continue;
      const NodeId to = net.arc_to(e);
      const double candidate = potential_[node] + net.cost(e);
      if (candidate + kEps < potential_[to]) {
        potential_[to] = candidate;
        enqueue(to);
      }
    }
  }
}

McmfResult McmfSolver::augment(FlowNetwork& net, NodeId source, NodeId sink,
                               std::int64_t flow_limit) {
  CCDN_REQUIRE(source < net.num_nodes() && sink < net.num_nodes(),
               "source/sink out of range");
  CCDN_REQUIRE(source != sink, "source equals sink");
  CCDN_REQUIRE(flow_limit >= 0, "negative flow limit");
  if (strategy_ == McmfStrategy::kDijkstraPotentials) {
    CCDN_REQUIRE(potential_.size() == net.num_nodes(),
                 "potentials not sized for this network; call "
                 "reset_potentials() first");
  }

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
  McmfSolver solver(strategy);
  // Forward costs are non-negative, so zero potentials are valid initially
  // for the Dijkstra strategy.
  solver.reset_potentials(net.num_nodes());
  return solver.augment(net, source, sink, flow_limit);
}

}  // namespace ccdn
