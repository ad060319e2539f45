// Certificate tests for the MCMF engine on random instances.
//
// SPFA is the only engine, so the oracle needs no second one. Every solve,
// to max flow (`solve`) or to a flow limit (`solve_up_to`), is checked
// against three independent facts:
//  - its flow value equals Dinic's max flow on a copy of the input, capped
//    at the limit;
//  - its reported cost equals the cost recomputed from the edge flows;
//  - audit_epoch_residual, the min-cost certificate: a flow is of minimum
//    cost for its value exactly when its residual graph has no negative
//    cycle.
// The layered instances are deliberately harder than the bipartite balance
// graphs: skip and cross edges force many augmenting iterations, residual
// rerouting, and iterations in which parts of the graph are unreachable.
// The suite and case names predate the removal of the Dijkstra engine
// (DESIGN.md §3.7); they are kept so the test ids stay stable.
#include "flow/mcmf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "flow/dinic.h"
#include "util/rng.h"
#include "verify/flow_audit.h"

namespace ccdn {
namespace {

/// Solve `net` from node 0 to node 1 — to max flow when `limit` is empty,
/// else up to `limit` units — and check the result against the three
/// certificates above.
void expect_certified(FlowNetwork net, std::optional<std::int64_t> limit) {
  FlowNetwork dinic_net = net;
  const McmfResult result =
      limit.has_value() ? MinCostMaxFlow::solve_up_to(net, 0, 1, *limit)
                        : MinCostMaxFlow::solve(net, 0, 1);
  const std::int64_t max_flow = Dinic::solve(dinic_net, 0, 1);
  EXPECT_EQ(result.flow, limit.has_value() ? std::min(*limit, max_flow)
                                           : max_flow);

  double recomputed = 0.0;
  // Forward edges sit at even ids; num_edges() counts forward edges only.
  for (EdgeId e = 0; e < 2 * net.num_edges(); e += 2) {
    recomputed += static_cast<double>(net.flow(e)) * net.edge(e).cost;
  }
  EXPECT_NEAR(recomputed, result.cost, 1e-6);

  AuditReport report;
  audit_flow_conservation(net, 0, 1, report);
  audit_epoch_residual(net, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

/// Random layered DAG with skip edges: source 0 -> layer 1 -> ... -> sink 1.
/// Sparse enough that augmentations regularly disconnect whole layers.
FlowNetwork random_layered_graph(Rng& rng, std::size_t layers,
                                 std::size_t width, double edge_prob) {
  const std::size_t n = 2 + layers * width;
  FlowNetwork net(static_cast<NodeId>(n));
  const auto node_at = [&](std::size_t layer, std::size_t slot) {
    return static_cast<NodeId>(2 + layer * width + slot);
  };
  for (std::size_t s = 0; s < width; ++s) {
    if (rng.chance(0.8)) {
      (void)net.add_edge(0, node_at(0, s), rng.uniform_int(1, 20),
                         rng.uniform(0.0, 4.0));
    }
    if (rng.chance(0.8)) {
      (void)net.add_edge(node_at(layers - 1, s), 1, rng.uniform_int(1, 20),
                         rng.uniform(0.0, 4.0));
    }
  }
  for (std::size_t layer = 0; layer + 1 < layers; ++layer) {
    for (std::size_t a = 0; a < width; ++a) {
      for (std::size_t b = 0; b < width; ++b) {
        if (rng.chance(edge_prob)) {
          (void)net.add_edge(node_at(layer, a), node_at(layer + 1, b),
                             rng.uniform_int(1, 15), rng.uniform(0.0, 6.0));
        }
        // Occasional skip edge two layers ahead: cheap shortcuts that
        // saturate early and leave the detour region unreached for a while.
        if (layer + 2 < layers && rng.chance(edge_prob / 3.0)) {
          (void)net.add_edge(node_at(layer, a), node_at(layer + 2, b),
                             rng.uniform_int(1, 10), rng.uniform(0.0, 2.0));
        }
      }
    }
  }
  return net;
}

class McmfDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McmfDifferential, SpfaAndDijkstraIdenticalOnLayeredGraphs) {
  Rng rng(GetParam() * 7919 + 13);
  expect_certified(random_layered_graph(rng, 4, 4, 0.45), std::nullopt);
}

TEST_P(McmfDifferential, FlowLimitAgreesAcrossStrategies) {
  Rng rng(GetParam() * 104729 + 5);
  const FlowNetwork net = random_layered_graph(rng, 3, 5, 0.5);
  const std::int64_t limit = rng.uniform_int(1, 12);
  expect_certified(net, limit);
}

INSTANTIATE_TEST_SUITE_P(RandomLayeredGraphs, McmfDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

/// Random balanced bipartite instances, mirroring the Gd graphs RBCAer
/// builds: source -> senders -> receivers -> sink with km-scale costs.
FlowNetwork random_balance_graph(Rng& rng, std::size_t senders,
                                 std::size_t receivers, double edge_prob) {
  FlowNetwork net(2 + senders + receivers);
  for (std::size_t i = 0; i < senders; ++i) {
    (void)net.add_edge(0, static_cast<NodeId>(2 + i), rng.uniform_int(1, 50),
                       0.0);
  }
  for (std::size_t j = 0; j < receivers; ++j) {
    (void)net.add_edge(static_cast<NodeId>(2 + senders + j), 1,
                       rng.uniform_int(1, 50), 0.0);
  }
  for (std::size_t i = 0; i < senders; ++i) {
    for (std::size_t j = 0; j < receivers; ++j) {
      if (rng.chance(edge_prob)) {
        (void)net.add_edge(static_cast<NodeId>(2 + i),
                           static_cast<NodeId>(2 + senders + j),
                           rng.uniform_int(1, 30), rng.uniform(0.1, 5.0));
      }
    }
  }
  return net;
}

class McmfStrategyAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(McmfStrategyAgreement, SpfaAndDijkstraAgree) {
  Rng rng(GetParam());
  const FlowNetwork net = random_balance_graph(rng, 6, 6, 0.5);
  expect_certified(net, std::nullopt);
  // Stop partway: the first augmentations must already be min-cost.
  FlowNetwork dinic_net = net;
  expect_certified(net, Dinic::solve(dinic_net, 0, 1) / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, McmfStrategyAgreement,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace ccdn
