// Min-cost max-flow via successive shortest augmenting paths.
//
// This is the MCMF engine Algorithm 1 invokes on the Gd/Gc graphs
// (the paper cites Ford-Fulkerson flows [19]). Each augmentation follows a
// cheapest residual path found by SPFA (the Bellman-Ford queue variant,
// which handles the negative costs of residual arcs directly), so the
// result is a maximum flow of minimum total cost. Costs are km of
// geo-distance, compared with a 1e-9 noise tolerance.
#pragma once

#include <cstdint>

#include "flow/network.h"

namespace ccdn {

/// SPFA is the only engine. The type survives only because
/// perfbench/trace_mode.cc still names it (RbcaerConfig::mcmf_strategy,
/// ShardedSolveOptions::exchange_strategy, ThetaSweeper's constructor);
/// every one of those is ignored.
enum class McmfStrategy {
  kSpfa,
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
  static McmfResult solve(FlowNetwork& net, NodeId source, NodeId sink);

  /// Same, but stop once `flow_limit` units have been routed.
  static McmfResult solve_up_to(FlowNetwork& net, NodeId source, NodeId sink,
                                std::int64_t flow_limit);
};

}  // namespace ccdn
