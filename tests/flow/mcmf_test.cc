#include "flow/mcmf.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"
#include "util/rng.h"

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
