// Flow-side invariant audits: conservation, capacity bounds, reduced-cost
// validity, and the f_ij-vs-slack contracts of Algorithm 1. The network
// checks walk edge storage (flow() and edge()), not adjacency lists.
#pragma once

#include <cstdint>
#include <span>

#include "core/balance_graph.h"
#include "flow/network.h"
#include "verify/audit.h"

namespace ccdn {

/// Conservation and capacity bounds of the current flow:
///  - every forward edge carries 0 <= flow <= original capacity
///    ("edge-flow-negative" / "edge-over-capacity"),
///  - net flow is zero at every interior node ("flow-conservation"),
///  - the source emits what the sink absorbs, and not the other way
///    around ("terminal-imbalance").
void audit_flow_conservation(const FlowNetwork& net, NodeId source,
                             NodeId sink, AuditReport& report);

/// Every arc with positive residual capacity must price non-negatively
/// under `potentials`: cost + pi[from] - pi[to] >= -eps
/// ("negative-reduced-cost"). Pass an empty span for zero potentials — the
/// state of an unsolved network, where every live arc is a forward arc
/// whose raw cost must be non-negative. A potentials span shorter than the
/// node count is reported as "potentials-missing".
void audit_reduced_costs(const FlowNetwork& net,
                         std::span<const double> potentials,
                         AuditReport& report);

/// Optimality certificate for a solved network's residual graph (the θ
/// step runs it before discarding its graph). A min-cost flow's residual
/// graph admits no negative-cost cycle; equivalently, a potential vector
/// exists under which every positive-capacity arc prices non-negatively.
/// This audit derives such a vector itself — an everywhere-seeded
/// Bellman-Ford over edge storage (every node starts at 0, so no
/// reachability assumptions) — and reports "negative-residual-cycle" when
/// the relaxation fails to converge within num_nodes rounds, which happens
/// exactly when such a cycle exists. On convergence the derived potentials
/// are fed through audit_reduced_costs() as a self-check.
void audit_epoch_residual(const FlowNetwork& net, AuditReport& report);

/// The per-pair flows extracted from a slot's sweep, checked against the
/// partition's *initial* slack (phi as of HotspotPartition::from_loads):
///  - entries are positive with in-range endpoints
///    ("flow-entry-nonpositive" / "flow-endpoint-range"),
///  - flow runs overloaded -> under-utilized ("flow-direction"),
///  - per-hotspot totals respect phi: sum_j f_ij <= phi0_i and
///    sum_i f_ij <= phi0_j ("flow-exceeds-slack").
/// `initial_phi` must have one entry per hotspot.
void audit_flow_entries(std::span<const FlowEntry> flows,
                        const HotspotPartition& partition,
                        std::span<const std::int64_t> initial_phi,
                        AuditReport& report);

}  // namespace ccdn
