// Incremental θ sweep for Algorithm 1 (the warm-started MCMF loop), and the
// cold reference step it is held to.
//
// The cold step (cold_step_gd / cold_step_gc) rebuilds a BalanceGraph and
// re-solves MCMF from zero flow at every θ step, even though consecutive
// steps differ only by the candidate edges with d ∈ [θ_prev, θ).
// ThetaSweeper keeps ONE FlowNetwork per slot:
// the source/sink scaffold is built once, the candidate list is sorted by
// distance once, and each step appends only the newly visible edges and
// continues min-cost augmentation from the existing residual state.
//
// Committed flow is protected by the freeze-at-commit invariant: at the end
// of each step every backward residual arc is zeroed
// (FlowNetwork::freeze_residuals), so later augmentation can add flow but
// never reroute what earlier steps decided — which is exactly what makes the
// per-step flow increments equal the cold path's per-θ solutions, and what
// makes zero (or carried) node potentials valid at the start of every step.
// DESIGN.md §3.7 has the full argument.
//
// Two regimes, switched automatically by which step_* is called:
//  - step_gd on a plain distance graph keeps the pair edges *persistent*
//    across steps (cursor append + warm augment). After each commit the
//    exhaustion proof lets EVERY pair arc be compacted out of the adjacency
//    (a surviving arc has a slack-dead endpoint, and slack never grows), so
//    each step's searches touch only the live scaffold plus that step's own
//    arrivals — the whole sweep's search work is linear in the candidate
//    count instead of steps × count. On top of that, Gd steps run Dijkstra
//    with node potentials carried across steps (locally re-priced when a
//    new edge under-cuts them), so each search early-exits at the sink and
//    prunes labels that cannot beat it. Plain distance costs make ties
//    measure-zero, so the flows match the cold path's SPFA solutions on
//    real geometry.
//  - step_gc re-derives the guide structure per step (its groups and costs
//    depend on the live φ), but transiently on top of the persistent
//    scaffold: truncate back to the scaffold checkpoint, append the current
//    Gc structure from pre-allocated buffers, augment. Because the φ-shaped
//    caps match a cold rebuild exactly, this regime reproduces the cold
//    path's flows bit for bit. Each epoch starts its solver from zero
//    prices, as the cold path does.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "flow/mcmf.h"
#include "flow/network.h"
#include "util/radix_sort.h"
#include "verify/audit.h"

namespace ccdn {

/// Result of one θ step: the per-pair flow *increments* committed by this
/// step (merged, ordered by (from, to)) plus stage timings.
struct SweepStep {
  std::vector<FlowEntry> flows;
  std::int64_t moved = 0;
  double cost = 0.0;
  std::size_t guide_nodes = 0;
  double graph_s = 0.0;  // edge/guide construction time
  double mcmf_s = 0.0;   // augmentation time
};

class ThetaSweeper {
 public:
  /// `strategy` is used for the Gc steps, whose zero-cost member edges tie
  /// and therefore need the exact search the cold reference step runs to
  /// stay bit-for-bit identical. Gd steps always use the carried-potentials
  /// Dijkstra engine (see gd_solver_); plain distance costs make ties
  /// measure-zero, so the flows still match the cold path's solutions.
  /// The second and third parameters are ignored; kept only because
  /// perfbench/trace_mode.cc passes them.
  explicit ThetaSweeper(McmfStrategy strategy = McmfStrategy::kSpfa,
                        bool = false, double = 0.0)
      : solver_(strategy, &arena_),
        gd_solver_(McmfStrategy::kDijkstraPotentials, &arena_) {}

  // The lane arena hands out interior pointers to members; moving the
  // sweeper would leave the solvers' buffers pointing into the old object.
  ThetaSweeper(const ThetaSweeper&) = delete;
  ThetaSweeper& operator=(const ThetaSweeper&) = delete;

  /// Start a slot: build the scaffold for `partition` into the persistent
  /// network and index `candidates` by distance. The partition outlives the
  /// sweep and its φ values are decremented as steps commit flow (the same
  /// contract as cold_step_gd / cold_step_gc). Candidates are taken in the
  /// order produced by candidate_edges() and copied into the sweeper's
  /// arena-backed buffer.
  void begin_slot(HotspotPartition& partition,
                  std::span<const CandidateEdge> candidates);

  /// Advance the sweep to θ on the plain distance graph Gd.
  SweepStep step_gd(double theta_km);

  /// Advance the sweep to θ on the content-aggregation graph Gc. The
  /// cluster labels and options must stay the same across a slot's steps.
  SweepStep step_gc(double theta_km, std::span<const std::uint32_t> cluster_of,
                    const GuideOptions& options);

  /// Release the slot (keeps the allocated buffers for the next one).
  void end_slot();

  /// Re-prices the warm Gd steps needed since construction, when an
  /// appended edge under-cut the carried potentials.
  [[nodiscard]] std::size_t potential_reprices() const noexcept {
    return gd_solver_.reprices();
  }

  /// At AuditLevel::kFull (and only in checked builds), every step commit
  /// audits the persistent network — flow conservation, capacity bounds,
  /// post-freeze residual costs — the warm Gd steps additionally audit
  /// the carried potentials' reduced-cost validity, and every transient
  /// (Gc / residual-Gd) step certifies its residual graph min-cost via
  /// audit_epoch_residual *before* truncate() discards it. A violation
  /// throws InvariantError naming the invariant. No-op below kFull.
  void set_audit_level(AuditLevel level) noexcept { audit_level_ = level; }
  [[nodiscard]] AuditLevel audit_level() const noexcept {
    return audit_level_;
  }

  /// The lane arena backing the sweeper's scratch and both solvers' search
  /// state. Observability only: the steady-state no-allocation property is
  /// asserted by the tests (upstream_blocks()/bytes_reserved() must stop
  /// moving once identical slots repeat).
  [[nodiscard]] const BumpArena& scratch_arena() const noexcept {
    return arena_;
  }

 private:
  enum class StepKind { kNone, kGdPersistent, kGdTransient, kGc };

  /// Pull candidates with d < θ past the cursor into `arrivals_`
  /// (original-order indices, ascending). Returns how many arrived.
  std::size_t collect_arrivals(double theta_km);
  /// Drop live entries whose endpoint slack died and merge the arrivals in,
  /// keeping `live_` sorted by original candidate index (the cold builders
  /// see candidates in that order).
  void refresh_live();
  void switch_to_transient();
  /// Read per-pair increments vs `committed_`, decrement φ, freeze.
  void commit(SweepStep& out);
  /// kFull commit-time audit of the persistent network (checked builds).
  void audit_commit() const;

  /// Lane arena backing every per-slot scratch buffer below and both
  /// solvers' search state (util/arena.h): one sweeper = one clone-ring
  /// lane = one contiguous working set, and once each buffer reaches its
  /// steady-state size a slot performs no allocation at all. Declared
  /// first so it destructs last — the arena must outlive every container
  /// it backs.
  BumpArena arena_;

  /// Gc steps' engine (and the first, batch Gd step's). Every solve starts
  /// from zero prices: carried prices would change Dijkstra's zero-cost
  /// tie-breaking, and SPFA never reads them.
  McmfSolver solver_;
  /// Gd steps: Dijkstra with potentials carried across the persistent
  /// regime's appends. Tight potentials make the next path price at
  /// reduced cost ~0, so the sink's tentative label appears almost
  /// immediately and the sink-bound prune cuts nearly every other label —
  /// measured ~3x fewer arc scans than SPFA on the same warm graph.
  McmfSolver gd_solver_;

  HotspotPartition* partition_ = nullptr;
  // original candidate_edges order
  ArenaVector<CandidateEdge> candidates_{ArenaAllocator<CandidateEdge>(
      &arena_)};
  // indices sorted by (d, index)
  ArenaVector<std::uint32_t> by_distance_{ArenaAllocator<std::uint32_t>(
      &arena_)};
  ArenaVector<KeyedIndex> order_scratch_{ArenaAllocator<KeyedIndex>(&arena_)};
  ArenaVector<KeyedIndex> radix_swap_{ArenaAllocator<KeyedIndex>(&arena_)};
  ArenaVector<std::uint32_t> radix_hist_{ArenaAllocator<std::uint32_t>(
      &arena_)};
  std::size_t cursor_ = 0;                  // consumed prefix of by_distance_

  FlowNetwork net_{0};
  ScaffoldMap map_;
  FlowNetwork::Checkpoint scaffold_cp_;
  std::vector<BalanceGraph::PairEdge> pair_edges_;
  std::vector<std::int64_t> committed_;  // per pair edge, persistent regime

  // Per-node id of the scaffold's source→sender arc, and the focused subset
  // (this step's arrival senders, deduplicated) handed to the network and
  // to reprice_from each persistent step.
  ArenaVector<EdgeId> source_arc_of_{ArenaAllocator<EdgeId>(&arena_)};
  ArenaVector<EdgeId> step_source_arcs_{ArenaAllocator<EdgeId>(&arena_)};
  // stamp: already focused this step
  ArenaVector<std::uint32_t> sender_mark_{ArenaAllocator<std::uint32_t>(
      &arena_)};
  std::uint32_t mark_stamp_ = 0;

  bool transient_ = false;
  bool gd_batch_done_ = false;  // first non-empty persistent step solved
  // live candidate indices, ascending
  ArenaVector<std::uint32_t> live_{ArenaAllocator<std::uint32_t>(&arena_)};
  // scratch: this step's new indices
  ArenaVector<std::uint32_t> arrivals_{ArenaAllocator<std::uint32_t>(
      &arena_)};
  // scratch for append_* calls
  ArenaVector<CandidateEdge> live_edges_{ArenaAllocator<CandidateEdge>(
      &arena_)};
  GcScratch gc_scratch_{&arena_};

  StepKind last_kind_ = StepKind::kNone;
  std::int64_t last_flow_ = 0;
  std::size_t last_guide_nodes_ = 0;
  AuditLevel audit_level_ = AuditLevel::kOff;
};

/// The cold reference step: one θ step of Algorithm 1 exactly as the paper
/// states it. Builds Gd over the `candidates` with d < θ and φ > 0 on both
/// endpoints (build_gd), solves MCMF from zero flow with `strategy`, and
/// commits the merged flows into `partition`'s φ. Returns the same
/// SweepStep the warm steps return; ThetaSweeper::step_gd must reproduce
/// its flows. The differential tests and fig8's oracle column compare
/// against it, and VirtualRbcaerScheme's region-level sweep runs it.
SweepStep cold_step_gd(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       McmfStrategy strategy = McmfStrategy::kSpfa);

/// Same on Gc (build_gc); ThetaSweeper::step_gc must reproduce it bit for
/// bit, guide-node count and cost included.
SweepStep cold_step_gc(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       std::span<const std::uint32_t> cluster_of,
                       const GuideOptions& options,
                       McmfStrategy strategy = McmfStrategy::kSpfa);

}  // namespace ccdn
