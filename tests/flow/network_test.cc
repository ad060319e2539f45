#include "flow/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

TEST(FlowNetwork, ConstructionAndNodes) {
  FlowNetwork net(3);
  EXPECT_EQ(net.num_nodes(), 3u);
  EXPECT_EQ(net.num_edges(), 0u);
  EXPECT_EQ(net.add_node(), 3u);
  EXPECT_EQ(net.num_nodes(), 4u);
}

TEST(FlowNetwork, AddEdgeCreatesResidualPair) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 10, 2.5);
  EXPECT_EQ(net.num_edges(), 1u);
  EXPECT_EQ(net.edge(e).from, 0u);
  EXPECT_EQ(net.edge(e).to, 1u);
  EXPECT_EQ(net.edge(e).capacity, 10);
  EXPECT_DOUBLE_EQ(net.edge(e).cost, 2.5);
  const EdgeId rev = net.paired(e);
  EXPECT_EQ(net.edge(rev).from, 1u);
  EXPECT_EQ(net.edge(rev).to, 0u);
  EXPECT_EQ(net.edge(rev).capacity, 0);
  EXPECT_DOUBLE_EQ(net.edge(rev).cost, -2.5);
}

TEST(FlowNetwork, PushMovesCapacity) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 10, 1.0);
  net.push(e, 4);
  EXPECT_EQ(net.edge(e).capacity, 6);
  EXPECT_EQ(net.edge(net.paired(e)).capacity, 4);
  EXPECT_EQ(net.flow(e), 4);
}

TEST(FlowNetwork, PushRejectsOverflow) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 3, 1.0);
  EXPECT_THROW(net.push(e, 4), PreconditionError);
  EXPECT_THROW(net.push(e, -1), PreconditionError);
}

TEST(FlowNetwork, OutEdgesIncludeResiduals) {
  FlowNetwork net(3);
  (void)net.add_edge(0, 1, 1, 0.0);
  (void)net.add_edge(1, 2, 1, 0.0);
  EXPECT_EQ(net.out_edges(0).size(), 1u);
  EXPECT_EQ(net.out_edges(1).size(), 2u);  // residual of 0->1 plus 1->2
  EXPECT_EQ(net.out_edges(2).size(), 1u);  // residual of 1->2
}

TEST(FlowNetwork, RejectsBadEndpointsAndCapacity) {
  FlowNetwork net(2);
  EXPECT_THROW((void)net.add_edge(0, 5, 1, 0.0), PreconditionError);
  EXPECT_THROW((void)net.add_edge(0, 1, -1, 0.0), PreconditionError);
}

TEST(FlowNetwork, FlowAccessorRequiresForwardEdge) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 1, 0.0);
  EXPECT_THROW((void)net.flow(net.paired(e)), PreconditionError);
}

// ---------------------------------------------------------------------------
// CSR adjacency property test.
//
// The CSR slice table replaced a vector-of-vectors adjacency (DESIGN.md
// §3.11); this suite replays random mutator sequences against a
// vector-of-vectors reference model that applies each documented rule
// directly, and demands out_edges() match the model arc-for-arc after every
// step.
// ---------------------------------------------------------------------------

/// Reference adjacency: the documented effect of every mutator, written the
/// obvious way against per-node vectors. Edge storage (endpoints) is read
/// back from the network under test — storage is shared between the two
/// representations; only the adjacency derivation differs.
struct AdjacencyModel {
  std::vector<std::vector<EdgeId>> heads;

  void add_node() { heads.emplace_back(); }

  void add_edge(NodeId from, NodeId to, EdgeId forward) {
    heads[from].push_back(forward);
    heads[to].push_back(forward + 1);
  }
};

void expect_adjacency_matches(const FlowNetwork& net,
                              const AdjacencyModel& model, std::size_t step) {
  ASSERT_EQ(net.num_nodes(), model.heads.size()) << "after step " << step;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const auto slice = net.out_edges(n);
    const auto& expected = model.heads[n];
    ASSERT_EQ(slice.size(), expected.size())
        << "node " << n << " after step " << step;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(slice[i], expected[i])
          << "node " << n << " arc " << i << " after step " << step;
      ASSERT_EQ(net.arc_from(slice[i]), n)
          << "slice arc does not leave its node, step " << step;
    }
  }
}

class CsrAdjacencyProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrAdjacencyProperty, MatchesVectorOfVectorsModel) {
  Rng rng(GetParam());
  const std::size_t initial_nodes = 2 + rng.index(6);
  FlowNetwork net(initial_nodes);
  AdjacencyModel model{std::vector<std::vector<EdgeId>>(initial_nodes)};

  for (std::size_t step = 0; step < 160; ++step) {
    switch (rng.index(4)) {
      case 0: {  // add_node
        net.add_node();
        model.add_node();
        break;
      }
      case 1:
      case 2: {  // add_edge (weighted: graphs should mostly grow)
        const auto from = static_cast<NodeId>(rng.index(net.num_nodes()));
        auto to = static_cast<NodeId>(rng.index(net.num_nodes()));
        if (to == from) to = static_cast<NodeId>((to + 1) % net.num_nodes());
        if (to == from) break;  // single-node network: nothing to connect
        const EdgeId e =
            net.add_edge(from, to, rng.uniform_int(0, 12), rng.uniform());
        model.add_edge(from, to, e);
        break;
      }
      case 3: {  // push along a live arc (no adjacency effect)
        if (net.num_edges() == 0) break;
        const auto e = static_cast<EdgeId>(2 * rng.index(net.num_edges()));
        if (net.residual(e) > 0) {
          net.push(e, rng.uniform_int(1, net.residual(e)));
        }
        break;
      }
      default:
        break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_adjacency_matches(net, model, step));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMutatorSequences, CsrAdjacencyProperty,
                         testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace ccdn
