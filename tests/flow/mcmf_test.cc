#include "flow/mcmf.h"

#include <gtest/gtest.h>

#include <vector>

#include "flow/dinic.h"
#include "util/error.h"
#include "util/rng.h"
#include "verify/flow_audit.h"

namespace ccdn {
namespace {

TEST(Mcmf, SingleEdge) {
  FlowNetwork net(2);
  (void)net.add_edge(0, 1, 5, 3.0);
  const auto result = MinCostMaxFlow::solve(net, 0, 1);
  EXPECT_EQ(result.flow, 5);
  EXPECT_DOUBLE_EQ(result.cost, 15.0);
}

TEST(Mcmf, PrefersCheaperPath) {
  FlowNetwork net(4);
  (void)net.add_edge(0, 1, 10, 1.0);
  (void)net.add_edge(1, 3, 10, 1.0);  // path cost 2
  (void)net.add_edge(0, 2, 10, 5.0);
  (void)net.add_edge(2, 3, 10, 5.0);  // path cost 10
  const auto result = MinCostMaxFlow::solve(net, 0, 3);
  EXPECT_EQ(result.flow, 20);
  EXPECT_DOUBLE_EQ(result.cost, 10 * 2.0 + 10 * 10.0);
}

TEST(Mcmf, SplitsWhenCheapPathSaturates) {
  FlowNetwork net(4);
  (void)net.add_edge(0, 1, 3, 1.0);
  (void)net.add_edge(1, 3, 3, 0.0);
  (void)net.add_edge(0, 2, 7, 4.0);
  (void)net.add_edge(2, 3, 7, 0.0);
  const auto result = MinCostMaxFlow::solve(net, 0, 3);
  EXPECT_EQ(result.flow, 10);
  EXPECT_DOUBLE_EQ(result.cost, 3 * 1.0 + 7 * 4.0);
}

TEST(Mcmf, ReroutesThroughResiduals) {
  // Classic instance where the optimum requires undoing a greedy path.
  FlowNetwork net(4);
  (void)net.add_edge(0, 1, 1, 1.0);
  (void)net.add_edge(0, 2, 1, 10.0);
  (void)net.add_edge(1, 2, 1, 1.0);
  (void)net.add_edge(1, 3, 1, 10.0);
  (void)net.add_edge(2, 3, 1, 1.0);
  const auto result = MinCostMaxFlow::solve(net, 0, 3);
  EXPECT_EQ(result.flow, 2);
  // Unit capacities force the two units onto edge-disjoint paths:
  // {0-1-2-3}=3 with {0-2-3} blocked (2->3 saturated) leaves
  // {0-1-3}=11 + {0-2-3}=11 = 22, which equals sending the first unit
  // 0-1-2-3 and rerouting via the 1->2 residual. Optimal cost is 22.
  EXPECT_DOUBLE_EQ(result.cost, 22.0);
}

TEST(Mcmf, FlowLimitStopsEarly) {
  FlowNetwork net(2);
  (void)net.add_edge(0, 1, 10, 2.0);
  const auto result = MinCostMaxFlow::solve_up_to(net, 0, 1, 4);
  EXPECT_EQ(result.flow, 4);
  EXPECT_DOUBLE_EQ(result.cost, 8.0);
}

TEST(Mcmf, ZeroLimitDoesNothing) {
  FlowNetwork net(2);
  (void)net.add_edge(0, 1, 10, 2.0);
  const auto result = MinCostMaxFlow::solve_up_to(net, 0, 1, 0);
  EXPECT_EQ(result.flow, 0);
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(Mcmf, DisconnectedIsZero) {
  FlowNetwork net(3);
  (void)net.add_edge(0, 1, 5, 1.0);
  const auto result = MinCostMaxFlow::solve(net, 0, 2);
  EXPECT_EQ(result.flow, 0);
}

TEST(Mcmf, RejectsBadArguments) {
  FlowNetwork net(2);
  EXPECT_THROW((void)MinCostMaxFlow::solve(net, 0, 0), PreconditionError);
  EXPECT_THROW((void)MinCostMaxFlow::solve_up_to(net, 0, 1, -1),
               PreconditionError);
}

TEST(McmfSolver, WarmAugmentAfterFreezeMatchesColdSolve) {
  // The θ-sweep pattern: augment, freeze the residuals, append edges,
  // augment again. The per-phase totals must add up to what a cold solve
  // over the final edge set finds.
  FlowNetwork net(4);
  (void)net.add_edge(0, 1, 10, 0.0);
  (void)net.add_edge(2, 3, 10, 0.0);
  (void)net.add_edge(1, 2, 4, 2.0);
  McmfSolver solver;
  const auto first = solver.augment(net, 0, 3);
  EXPECT_EQ(first.flow, 4);
  EXPECT_DOUBLE_EQ(first.cost, 8.0);
  net.freeze_residuals();
  (void)net.add_edge(1, 2, 6, 1.0);  // cheaper parallel capacity arrives
  const auto second = solver.augment(net, 0, 3);
  EXPECT_EQ(second.flow, 6);
  EXPECT_DOUBLE_EQ(second.cost, 6.0);

  FlowNetwork cold(4);
  (void)cold.add_edge(0, 1, 10, 0.0);
  (void)cold.add_edge(2, 3, 10, 0.0);
  (void)cold.add_edge(1, 2, 4, 2.0);
  (void)cold.add_edge(1, 2, 6, 1.0);
  const auto reference = MinCostMaxFlow::solve(cold, 0, 3);
  EXPECT_EQ(first.flow + second.flow, reference.flow);
  EXPECT_DOUBLE_EQ(first.cost + second.cost, reference.cost);
}

TEST(McmfSolver, DetectsStalePotentialsAndReprices) {
  // Carried Dijkstra potentials go stale when an appended edge shortcuts
  // the priced shortest paths; reprice_from must count the violation and
  // lower the potentials back to a state the next augment can run from.
  FlowNetwork net(4);
  (void)net.add_edge(0, 1, 5, 10.0);
  (void)net.add_edge(1, 3, 5, 10.0);
  McmfSolver solver(McmfStrategy::kDijkstraPotentials);
  solver.reset_potentials(net.num_nodes());
  const auto first = solver.augment(net, 0, 3);
  EXPECT_EQ(first.flow, 5);
  EXPECT_DOUBLE_EQ(first.cost, 100.0);
  net.freeze_residuals();

  const auto first_new = static_cast<EdgeId>(2 * net.num_edges());
  (void)net.add_edge(0, 2, 5, 1.0);  // reduced cost 1 + π(0) − π(2) < 0
  (void)net.add_edge(2, 3, 5, 1.0);
  solver.reprice_from(net, first_new);
  EXPECT_EQ(solver.reprices(), 1u);
  AuditReport report;
  audit_reduced_costs(net, solver.potentials(), report);
  EXPECT_TRUE(report.ok()) << report.summary();
  const auto second = solver.augment(net, 0, 3);
  EXPECT_EQ(second.flow, 5);
  EXPECT_DOUBLE_EQ(second.cost, 10.0);
}

/// A unit-capacity, unit-cost path 0 → 1 → … → nodes-1.
FlowNetwork chain(std::size_t nodes) {
  FlowNetwork net(nodes);
  for (NodeId v = 0; v + 1 < nodes; ++v) (void)net.add_edge(v, v + 1, 1, 1.0);
  return net;
}

TEST(McmfSolver, SearchAfterSmallerRepriceSizesEveryBuffer) {
  // reprice_from on a smaller network must not leave the SPFA queue flags
  // shorter than the label arrays: the next search on a larger network
  // indexes every per-node buffer (a checked libstdc++ build aborts on the
  // out-of-range flag otherwise).
  McmfSolver solver(McmfStrategy::kSpfa);
  FlowNetwork first = chain(10);
  EXPECT_EQ(solver.augment(first, 0, 9).flow, 1);
  const FlowNetwork small = chain(4);
  solver.reset_potentials(small.num_nodes());
  solver.reprice_from(small, 0);
  FlowNetwork second = chain(10);
  const auto result = solver.augment(second, 0, 9);
  EXPECT_EQ(result.flow, 1);
  EXPECT_DOUBLE_EQ(result.cost, 9.0);
}

TEST(McmfSolver, FlowLimitSpreadsAcrossWarmCalls) {
  FlowNetwork net(2);
  (void)net.add_edge(0, 1, 10, 2.0);
  McmfSolver solver;
  EXPECT_EQ(solver.augment(net, 0, 1, 4).flow, 4);
  EXPECT_EQ(solver.augment(net, 0, 1, 4).flow, 4);
  EXPECT_EQ(solver.augment(net, 0, 1).flow, 2);  // only 2 units remain
}

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
  FlowNetwork spfa_net =
      random_balance_graph(rng, 6, 6, 0.5);
  FlowNetwork dijkstra_net = spfa_net;  // copy before solving
  FlowNetwork dinic_net = spfa_net;

  const auto spfa =
      MinCostMaxFlow::solve(spfa_net, 0, 1, McmfStrategy::kSpfa);
  const auto dijkstra = MinCostMaxFlow::solve(
      dijkstra_net, 0, 1, McmfStrategy::kDijkstraPotentials);
  const auto max_flow = Dinic::solve(dinic_net, 0, 1);

  // Both strategies find a *maximum* flow of *minimum* cost.
  EXPECT_EQ(spfa.flow, max_flow);
  EXPECT_EQ(dijkstra.flow, max_flow);
  EXPECT_NEAR(spfa.cost, dijkstra.cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, McmfStrategyAgreement,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Mcmf, MatchesBruteForceOnTinyInstances) {
  // 2 senders x 2 receivers with unit slack: enumerate all integral flows.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 1000 + 17);
    const std::int64_t phi_a = rng.uniform_int(1, 3);
    const std::int64_t phi_b = rng.uniform_int(1, 3);
    const std::int64_t phi_c = rng.uniform_int(1, 3);
    const std::int64_t phi_d = rng.uniform_int(1, 3);
    const double cost_ac = rng.uniform(0.5, 3.0);
    const double cost_ad = rng.uniform(0.5, 3.0);
    const double cost_bc = rng.uniform(0.5, 3.0);
    const double cost_bd = rng.uniform(0.5, 3.0);

    FlowNetwork net(6);  // 0=s, 1=t, 2=a, 3=b, 4=c, 5=d
    (void)net.add_edge(0, 2, phi_a, 0.0);
    (void)net.add_edge(0, 3, phi_b, 0.0);
    (void)net.add_edge(4, 1, phi_c, 0.0);
    (void)net.add_edge(5, 1, phi_d, 0.0);
    (void)net.add_edge(2, 4, std::min(phi_a, phi_c), cost_ac);
    (void)net.add_edge(2, 5, std::min(phi_a, phi_d), cost_ad);
    (void)net.add_edge(3, 4, std::min(phi_b, phi_c), cost_bc);
    (void)net.add_edge(3, 5, std::min(phi_b, phi_d), cost_bd);
    const auto result = MinCostMaxFlow::solve(net, 0, 1);

    // Brute force over all feasible integral assignments.
    std::int64_t best_flow = 0;
    double best_cost = 0.0;
    for (std::int64_t ac = 0; ac <= std::min(phi_a, phi_c); ++ac) {
      for (std::int64_t ad = 0; ad <= std::min(phi_a, phi_d); ++ad) {
        for (std::int64_t bc = 0; bc <= std::min(phi_b, phi_c); ++bc) {
          for (std::int64_t bd = 0; bd <= std::min(phi_b, phi_d); ++bd) {
            if (ac + ad > phi_a || bc + bd > phi_b) continue;
            if (ac + bc > phi_c || ad + bd > phi_d) continue;
            const std::int64_t flow = ac + ad + bc + bd;
            const double cost = static_cast<double>(ac) * cost_ac +
                                static_cast<double>(ad) * cost_ad +
                                static_cast<double>(bc) * cost_bc +
                                static_cast<double>(bd) * cost_bd;
            if (flow > best_flow ||
                (flow == best_flow && cost < best_cost)) {
              best_flow = flow;
              best_cost = cost;
            }
          }
        }
      }
    }
    EXPECT_EQ(result.flow, best_flow) << "seed " << seed;
    EXPECT_NEAR(result.cost, best_cost, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccdn
