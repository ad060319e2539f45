// Fixture: must trip exactly [cost-accumulation].
// The loop runs in index order, so the sum is reproducible, but only an
// audit can say the order is fixed; until then the accumulator is flagged.
#include <cstddef>
#include <vector>

double route_cost(const std::vector<double>& edge_costs) {
  double total_cost = 0.0;
  for (std::size_t e = 0; e < edge_costs.size(); ++e) {
    total_cost += edge_costs[e];
  }
  return total_cost;
}
