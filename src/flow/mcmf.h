// Min-cost max-flow via successive shortest augmenting paths.
//
// This is the MCMF engine Algorithm 1 invokes on the Gd/Gc graphs
// (the paper cites Ford-Fulkerson flows [19]). Two path-search strategies
// are provided: SPFA (Bellman-Ford queue variant; handles the negative
// residual costs directly) and Dijkstra with Johnson potentials (faster on
// large sparse graphs). Both produce a maximum flow of minimum total cost.
// Costs are km of geo-distance, compared with a 1e-9 noise tolerance.
#pragma once

#include <cstdint>

#include "flow/network.h"

namespace ccdn {

enum class McmfStrategy {
  kSpfa,
  kDijkstraPotentials,
};

struct McmfResult {
  std::int64_t flow = 0;
  double cost = 0.0;
};

class MinCostMaxFlow {
 public:
  /// Computes a min-cost max-flow from `source` to `sink`, mutating the
  /// residual capacities of `net`. All forward-edge costs must be
  /// non-negative.
  static McmfResult solve(FlowNetwork& net, NodeId source, NodeId sink,
                          McmfStrategy strategy = McmfStrategy::kSpfa);

  /// Same, but stop once `flow_limit` units have been routed.
  static McmfResult solve_up_to(FlowNetwork& net, NodeId source, NodeId sink,
                                std::int64_t flow_limit,
                                McmfStrategy strategy = McmfStrategy::kSpfa);
};

}  // namespace ccdn
