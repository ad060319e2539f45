// Flow-side auditor: clean solved networks pass, and seeded corruptions are
// reported under the exact invariant name (the negative paths the in-pipeline
// CCDN_ASSERT hooks can never reach in a healthy build).
#include "verify/flow_audit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/balance_graph.h"
#include "flow/mcmf.h"
#include "flow/network.h"

namespace ccdn {
namespace {

/// Diamond s→{a,b}→t with distinct costs; solving it yields a conserved,
/// capacity-respecting flow.
struct Diamond {
  FlowNetwork net{4};
  NodeId source = 0;
  NodeId a = 1;
  NodeId b = 2;
  NodeId sink = 3;
  EdgeId sa, sb, at, bt;

  Diamond() {
    sa = net.add_edge(source, a, 5, 0.0);
    sb = net.add_edge(source, b, 4, 0.0);
    at = net.add_edge(a, sink, 5, 1.0);
    bt = net.add_edge(b, sink, 4, 2.0);
  }
};

TEST(FlowAuditTest, SolvedNetworkIsClean) {
  Diamond d;
  const McmfResult result =
      MinCostMaxFlow::solve(d.net, d.source, d.sink, McmfStrategy::kSpfa);
  EXPECT_EQ(result.flow, 9);

  AuditReport report;
  audit_flow_conservation(d.net, d.source, d.sink, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FlowAuditTest, PartialPathPushBreaksConservation) {
  Diamond d;
  // Push into `a` without pushing onward: a is an interior node with net
  // inflow, which the storage walk must flag by name.
  d.net.push(d.sa, 3);

  AuditReport report;
  audit_flow_conservation(d.net, d.source, d.sink, report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("flow-conservation")) << report.summary();
  EXPECT_TRUE(report.has("terminal-imbalance")) << report.summary();
}

TEST(FlowAuditTest, InteriorLeakNamesBothEndpoints) {
  Diamond d;
  // Interior-only corruption: flow appears on a→t but nothing feeds a.
  d.net.push(d.at, 2);

  AuditReport report;
  audit_flow_conservation(d.net, d.source, d.sink, report);
  EXPECT_TRUE(report.has("flow-conservation")) << report.summary();
}

TEST(FlowAuditTest, InvalidTerminalsAreRejected) {
  Diamond d;
  AuditReport report;
  audit_flow_conservation(d.net, d.source, d.source, report);
  EXPECT_TRUE(report.has("terminal-nodes")) << report.summary();
}

TEST(FlowAuditTest, FrozenNetworkPricesCleanWithZeroPotentials) {
  // Before any flow is pushed, every live arc is a forward arc with a
  // non-negative cost, so zero potentials price the network cleanly.
  Diamond d;

  AuditReport report;
  audit_reduced_costs(d.net, {}, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FlowAuditTest, LiveNegativeArcIsNamed) {
  // A live backward arc carries cost -1 after augmentation; with zero
  // potentials it must be reported.
  Diamond d;
  (void)MinCostMaxFlow::solve(d.net, d.source, d.sink, McmfStrategy::kSpfa);
  // The residual of a→t (cost -1) is live.
  AuditReport report;
  audit_reduced_costs(d.net, {}, report);
  EXPECT_TRUE(report.has("negative-reduced-cost")) << report.summary();
}

TEST(FlowAuditTest, ValidPotentialsAbsorbResidualCosts) {
  Diamond d;
  (void)MinCostMaxFlow::solve(d.net, d.source, d.sink, McmfStrategy::kSpfa);
  // Every forward arc is saturated, so only the four residual arcs are
  // live; these potentials price each of them at exactly zero or better.
  const std::vector<double> potentials{0.0, 1.0, 0.0, 2.0};
  AuditReport report;
  audit_reduced_costs(d.net, potentials, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FlowAuditTest, ShortPotentialSpanIsReported) {
  Diamond d;
  const std::vector<double> truncated{0.0, 1.0};
  AuditReport report;
  audit_reduced_costs(d.net, truncated, report);
  EXPECT_TRUE(report.has("potentials-missing")) << report.summary();
}

TEST(FlowAuditTest, EpochResidualCleanOnOptimalFlow) {
  // The residual of a min-cost flow has no negative cycle, and the audit
  // must certify that without any caller-supplied potentials — this is the
  // check the θ step runs on its solved graph at kFull.
  Diamond d;
  (void)MinCostMaxFlow::solve(d.net, d.source, d.sink, McmfStrategy::kSpfa);
  AuditReport report;
  audit_epoch_residual(d.net, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FlowAuditTest, NegativeResidualCycleIsNamed) {
  // Seeded corruption: a two-arc cycle of total cost -1 with live capacity
  // in both directions. Such a cycle means the committed flow was not
  // cost-optimal (cancelling around it would lower the cost), which is
  // exactly the state a broken solver would leave behind.
  FlowNetwork net{2};
  (void)net.add_edge(0, 1, 1, 1.0);
  (void)net.add_edge(1, 0, 1, -2.0);
  AuditReport report;
  audit_epoch_residual(net, report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("negative-residual-cycle")) << report.summary();
}

/// Two-hotspot partition: 0 overloaded with slack 5, 1 under-utilized with
/// slack 4.
struct TinyPartition {
  HotspotPartition partition;
  std::vector<std::int64_t> initial_phi{5, 4};

  TinyPartition() {
    partition.overloaded = {0};
    partition.underutilized = {1};
    partition.phi = initial_phi;
  }
};

TEST(FlowAuditTest, WellFormedFlowEntriesPass) {
  TinyPartition t;
  const std::vector<FlowEntry> flows{{0, 1, 4}};
  AuditReport report;
  audit_flow_entries(flows, t.partition, t.initial_phi, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FlowAuditTest, ReversedFlowEntryNamesDirection) {
  TinyPartition t;
  const std::vector<FlowEntry> flows{{1, 0, 2}};
  AuditReport report;
  audit_flow_entries(flows, t.partition, t.initial_phi, report);
  EXPECT_TRUE(report.has("flow-direction")) << report.summary();
}

TEST(FlowAuditTest, OverdrawnFlowEntryNamesSlack) {
  TinyPartition t;
  // Receiver 1 only has slack 4; 5 units exceed it (sender is fine).
  const std::vector<FlowEntry> flows{{0, 1, 5}};
  AuditReport report;
  audit_flow_entries(flows, t.partition, t.initial_phi, report);
  EXPECT_TRUE(report.has("flow-exceeds-slack")) << report.summary();
}

TEST(FlowAuditTest, DegenerateFlowEntriesAreNamed) {
  TinyPartition t;
  const std::vector<FlowEntry> flows{{0, 1, 0}, {0, 7, 1}};
  AuditReport report;
  audit_flow_entries(flows, t.partition, t.initial_phi, report);
  EXPECT_TRUE(report.has("flow-entry-nonpositive")) << report.summary();
  EXPECT_TRUE(report.has("flow-endpoint-range")) << report.summary();
}

TEST(FlowAuditTest, RequireCleanThrowsWithInvariantNames) {
  TinyPartition t;
  const std::vector<FlowEntry> flows{{1, 0, 2}};
  AuditReport report;
  audit_flow_entries(flows, t.partition, t.initial_phi, report);
  try {
    report.require_clean("test artifact");
    FAIL() << "require_clean did not throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("flow-direction"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("test artifact"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ccdn
