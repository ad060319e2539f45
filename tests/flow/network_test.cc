#include "flow/network.h"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(FlowNetwork, ResetFlows) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 5, 1.0);
  net.push(e, 5);
  EXPECT_EQ(net.flow(e), 5);
  net.reset_flows();
  EXPECT_EQ(net.flow(e), 0);
  EXPECT_EQ(net.edge(e).capacity, 5);
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

TEST(FlowNetwork, ClearResetsNodesAndEdges) {
  FlowNetwork net(3);
  (void)net.add_edge(0, 1, 5, 1.0);
  (void)net.add_edge(1, 2, 5, 1.0);
  net.clear(2);
  EXPECT_EQ(net.num_nodes(), 2u);
  EXPECT_EQ(net.num_edges(), 0u);
  EXPECT_TRUE(net.out_edges(0).empty());
  EXPECT_TRUE(net.out_edges(1).empty());
  // The cleared network is fully usable again.
  const EdgeId e = net.add_edge(0, 1, 3, 2.0);
  EXPECT_EQ(net.edge(e).capacity, 3);
}

TEST(FlowNetwork, ReserveDoesNotChangeObservableState) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 4, 1.0);
  net.reserve(100, 100);
  EXPECT_EQ(net.num_nodes(), 2u);
  EXPECT_EQ(net.num_edges(), 1u);
  EXPECT_EQ(net.edge(e).capacity, 4);
}

TEST(FlowNetwork, TruncateDropsEdgesAndNodesPastCheckpoint) {
  FlowNetwork net(3);
  const EdgeId kept = net.add_edge(0, 1, 5, 1.0);
  const FlowNetwork::Checkpoint cp = net.checkpoint();
  const NodeId extra = net.add_node();
  (void)net.add_edge(1, extra, 7, 2.0);
  (void)net.add_edge(extra, 2, 7, 2.0);
  net.truncate(cp);
  EXPECT_EQ(net.num_nodes(), 3u);
  EXPECT_EQ(net.num_edges(), 1u);
  EXPECT_EQ(net.out_edges(1).size(), 1u);  // residual of 0->1 only
  EXPECT_EQ(net.edge(kept).capacity, 5);
  // Append again after truncation: ids continue densely.
  const EdgeId e = net.add_edge(1, 2, 2, 3.0);
  EXPECT_EQ(e, 2u);
  EXPECT_EQ(net.num_edges(), 2u);
}

TEST(FlowNetwork, TruncatePreservesFlowOnSurvivingEdges) {
  FlowNetwork net(3);
  const EdgeId kept = net.add_edge(0, 1, 5, 1.0);
  net.push(kept, 3);
  const FlowNetwork::Checkpoint cp = net.checkpoint();
  (void)net.add_edge(1, 2, 4, 1.0);
  net.truncate(cp);
  EXPECT_EQ(net.flow(kept), 3);
  EXPECT_EQ(net.edge(kept).capacity, 2);
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
/// obvious way against per-node vectors. Edge storage (endpoints, residuals)
/// is read back from the network under test — storage is shared between the
/// two representations; only the adjacency derivation differs.
struct AdjacencyModel {
  std::vector<std::vector<EdgeId>> heads;

  void add_node() { heads.emplace_back(); }

  void add_edge(NodeId from, NodeId to, EdgeId forward) {
    heads[from].push_back(forward);
    heads[to].push_back(forward + 1);
  }

  void clear(std::size_t num_nodes) {
    heads.assign(num_nodes, {});
  }

  void truncate(const FlowNetwork::Checkpoint& cp) {
    heads.resize(cp.nodes);
    for (auto& head : heads) {
      std::erase_if(head, [&](EdgeId e) { return e >= cp.stored_edges; });
    }
  }

  void drop_dead_arcs(const FlowNetwork& net) {
    for (auto& head : heads) {
      std::erase_if(head, [&](EdgeId e) {
        return net.residual(e) == 0 && net.residual(net.paired(e)) == 0;
      });
    }
  }

  void drop_arcs_at_or_after(EdgeId first) {
    for (auto& head : heads) {
      std::erase_if(head, [&](EdgeId e) { return e >= first; });
    }
  }

  void drop_terminal_arcs(const FlowNetwork& net, NodeId source, NodeId sink) {
    heads[sink].clear();
    for (auto& head : heads) {
      std::erase_if(head, [&](EdgeId e) { return net.arc_to(e) == source; });
    }
  }

  void focus_out_edges(NodeId node, const std::vector<EdgeId>& arcs) {
    heads[node] = arcs;
  }

  void restore_arcs(const FlowNetwork& net,
                    const FlowNetwork::Checkpoint& cp) {
    for (std::size_t n = 0; n < cp.nodes; ++n) heads[n].clear();
    for (EdgeId e = 0; e < cp.stored_edges; ++e) {
      heads[net.arc_from(e)].push_back(e);  // id order = fresh-build order
    }
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
  AdjacencyModel model;
  model.clear(initial_nodes);

  // Checkpoints valid for truncate()/restore_arcs(): a stack, so targets
  // are never below a truncation that already happened (arcs appended after
  // such a truncate may reference nodes the older checkpoint lacks).
  std::vector<FlowNetwork::Checkpoint> checkpoints{net.checkpoint()};

  const auto random_forward_edge = [&]() -> EdgeId {
    return static_cast<EdgeId>(2 * rng.index(net.num_edges()));
  };

  for (std::size_t step = 0; step < 160; ++step) {
    const std::size_t op = rng.index(13);
    switch (op) {
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
      case 3: {  // push along a live arc (feeds later drop_dead_arcs)
        if (net.num_edges() == 0) break;
        const EdgeId e = random_forward_edge();
        if (net.residual(e) > 0) {
          net.push(e, rng.uniform_int(1, net.residual(e)));
        }
        break;
      }
      case 4: {  // freeze_residuals / rebase_flows (no adjacency effect)
        if (rng.chance(0.5)) {
          net.freeze_residuals();
        } else {
          net.rebase_flows();
        }
        break;
      }
      case 5: {  // checkpoint
        checkpoints.push_back(net.checkpoint());
        break;
      }
      case 6: {  // truncate to a random stacked checkpoint
        const std::size_t pick = rng.index(checkpoints.size());
        const FlowNetwork::Checkpoint cp = checkpoints[pick];
        checkpoints.resize(pick + 1);  // drop checkpoints above the target
        net.truncate(cp);
        model.truncate(cp);
        break;
      }
      case 7: {  // drop_dead_arcs
        model.drop_dead_arcs(net);  // model reads residuals first (unchanged)
        net.drop_dead_arcs();
        break;
      }
      case 8: {  // drop_arcs_at_or_after
        const auto first =
            static_cast<EdgeId>(2 * rng.index(net.num_edges() + 1));
        net.drop_arcs_at_or_after(first);
        model.drop_arcs_at_or_after(first);
        break;
      }
      case 9: {  // drop_terminal_arcs
        if (net.num_nodes() < 2) break;
        const auto source = static_cast<NodeId>(rng.index(net.num_nodes()));
        auto sink = static_cast<NodeId>(rng.index(net.num_nodes()));
        if (sink == source) {
          sink = static_cast<NodeId>((sink + 1) % net.num_nodes());
        }
        model.drop_terminal_arcs(net, source, sink);
        net.drop_terminal_arcs(source, sink);
        break;
      }
      case 10: {  // focus_out_edges: keep a random subset of the node's arcs
        const auto node = static_cast<NodeId>(rng.index(net.num_nodes()));
        std::vector<EdgeId> kept;
        for (const EdgeId e : net.out_edges(node)) {
          if (rng.chance(0.5)) kept.push_back(e);
        }
        net.focus_out_edges(node, kept);
        model.focus_out_edges(node, kept);
        break;
      }
      case 11: {  // restore_arcs from a random stacked checkpoint
        const FlowNetwork::Checkpoint cp =
            checkpoints[rng.index(checkpoints.size())];
        net.restore_arcs(cp);
        model.restore_arcs(net, cp);
        break;
      }
      case 12: {  // compact or clear
        if (rng.chance(0.7)) {
          net.compact();  // layout-only: model untouched
        } else {
          const std::size_t n = 2 + rng.index(6);
          net.clear(n);
          model.clear(n);
          checkpoints.assign(1, net.checkpoint());
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

TEST(FlowNetwork, CompactReclaimsRelocationSlack) {
  FlowNetwork net(3);
  // Interleave appends so every node's slice relocates at least once.
  for (int round = 0; round < 8; ++round) {
    (void)net.add_edge(0, 1, 1, 0.5);
    (void)net.add_edge(1, 2, 1, 0.5);
    (void)net.add_edge(2, 0, 1, 0.5);
  }
  const std::size_t live = 2 * net.num_edges();
  EXPECT_GT(net.arc_pool_slots(), live);  // doubling left slack behind
  std::vector<std::vector<EdgeId>> before;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const auto slice = net.out_edges(n);
    before.emplace_back(slice.begin(), slice.end());
  }
  net.compact();
  EXPECT_EQ(net.arc_pool_slots(), live);  // tight
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const auto slice = net.out_edges(n);
    ASSERT_TRUE(std::equal(slice.begin(), slice.end(), before[n].begin(),
                           before[n].end()));
  }
}

TEST(FlowNetwork, ClearReusesPoolBytesAcrossIdenticalBuilds) {
  FlowNetwork net(4);
  const auto build = [&net] {
    for (NodeId u = 0; u < 4; ++u) {
      for (NodeId v = 0; v < 4; ++v) {
        if (u != v) (void)net.add_edge(u, v, 2, 1.0);
      }
    }
  };
  build();
  net.clear(4);
  build();
  const std::size_t settled = net.arc_pool_slots();
  for (int round = 0; round < 5; ++round) {
    net.clear(4);
    build();
    EXPECT_EQ(net.arc_pool_slots(), settled) << "round " << round;
  }
}

TEST(FlowNetwork, FreezeResidualsZeroesBackwardArcs) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 10, 1.0);
  net.push(e, 4);
  EXPECT_EQ(net.edge(net.paired(e)).capacity, 4);
  net.freeze_residuals();
  // The backward arc is gone; the forward residual and the recorded flow
  // survive, so committed flow can grow but never be rerouted.
  EXPECT_EQ(net.edge(net.paired(e)).capacity, 0);
  EXPECT_EQ(net.edge(e).capacity, 6);
  EXPECT_EQ(net.flow(e), 4);
  net.push(e, 2);
  EXPECT_EQ(net.flow(e), 6);
}

}  // namespace
}  // namespace ccdn
