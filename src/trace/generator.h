// Synthetic session-trace generator.
//
// Produces a request stream over a World that is statistically shaped like
// the paper's iQiyi trace: global Zipf popularity calibrated to the 80/20
// rule, zone-local popularity deviations (the "small population" effect of
// [9]), diurnal per-zone-type activity, and spatially clustered demand.
//
// Two emission modes share one draw implementation:
//   * generate_trace / TraceGenerator::generate — materialize the whole
//     trace at once (the classic API).
//   * TraceGenerator::next_slot_batch — a slot-windowed cursor that emits
//     the trace one timeslot at a time in O(batch) memory, for the
//     bounded-memory streaming pipeline (DESIGN.md §3.9). Concatenating
//     the batches reproduces generate() bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "model/types.h"
#include "trace/world.h"
#include "util/rng.h"

namespace ccdn {

struct TraceConfig {
  /// Total sessions to draw (the paper's evaluation region has 212,472).
  std::size_t num_requests = 212472;
  /// Trace span; requests are spread over `duration_hours` hourly slots.
  std::size_t duration_hours = 24;
  /// Probability a request draws from its zone's local catalog instead of
  /// the global popularity law. Higher = stronger local skew.
  double local_skew = 0.5;
  /// Distinct videos in each zone's local catalog.
  std::size_t local_catalog_size = 150;
  /// Zipf exponent inside a local catalog.
  double local_zipf_exponent = 1.4;
  /// Probability a request targets the globally hot head (hit shows that
  /// every neighbourhood watches); gives nearby hotspots a shared baseline.
  double hot_skew = 0.25;
  /// Size of that globally hot head.
  std::size_t hot_set_size = 80;
  /// Micro-locality temporal phase: requests from the same ~cell-sized
  /// neighbourhood share a deterministic hour shift in
  /// [-max_shift, +max_shift]. Different micro-sites therefore peak at
  /// different hours, decorrelating nearby hotspots' hourly workloads
  /// (paper Fig. 3a) without changing the region-wide diurnal shape.
  /// Set max_shift to 0 to disable.
  double micro_phase_cell_km = 0.7;
  int micro_phase_max_shift_hours = 5;
  std::uint64_t seed = 7;
};

/// Generate a trace, sorted by timestamp (stable in draw order, so the
/// order of equal-timestamp requests is deterministic and windowed
/// emission decomposes exactly — see TraceGenerator). Deterministic in
/// (world.config().seed, trace_config.seed).
[[nodiscard]] std::vector<Request> generate_trace(const World& world,
                                                  const TraceConfig& config);

/// Deterministic trace generator with whole-trace and slot-windowed
/// emission. Holds a reference to `world`, which must outlive it.
///
/// The windowed cursor replays the draw stream once per emitted slot and
/// keeps only the requests that fall inside the current window, so its
/// resident set is O(largest batch) instead of O(trace). The price is
/// O(num_slots x num_requests) draw work overall — the right trade when
/// the trace itself cannot fit in memory; use generate() otherwise.
/// Because generate() sorts *stably* by timestamp, stably sorting each
/// window's subsequence (which preserves draw order within the window)
/// yields exactly the corresponding segment of the monolithic trace:
/// concatenation of all batches == generate(), bit for bit.
class TraceGenerator {
 public:
  /// `slot_seconds` fixes the window length of next_slot_batch (it does
  /// not affect generate()). Requires slot_seconds > 0 and a valid config.
  TraceGenerator(const World& world, TraceConfig config,
                 std::int64_t slot_seconds = 3600);

  /// Materialize the whole trace (identical to generate_trace).
  [[nodiscard]] std::vector<Request> generate() const;

  /// Emit the next slot window's requests, sorted by timestamp. Empty
  /// interior slots yield an empty vector (so slot indices stay aligned
  /// with partition_into_slots on the materialized trace); returns
  /// nullopt once the final non-empty slot has been emitted.
  [[nodiscard]] std::optional<std::vector<Request>> next_slot_batch();

  /// Index of the slot the next next_slot_batch() call will emit.
  [[nodiscard]] std::size_t next_slot_index() const noexcept {
    return cursor_slot_;
  }
  /// Total slot windows the cursor will emit (computes trace bounds on
  /// first use, like next_slot_batch).
  [[nodiscard]] std::size_t num_slots();

  /// Rewind the cursor to slot 0.
  void reset() noexcept { cursor_slot_ = 0; }

 private:
  /// Replay the full draw stream, appending to `out` only requests with
  /// timestamp in [window_begin, window_end); pass window_begin >
  /// window_end to keep everything. Also records the min/max timestamp
  /// seen, which is how the first pass learns the slot grid.
  void replay(std::int64_t window_begin, std::int64_t window_end,
              std::vector<Request>& out) const;
  void ensure_bounds();

  const World& world_;
  TraceConfig config_;
  std::int64_t slot_seconds_;

  // Draw tables, fixed at construction (identical to the classic path).
  std::vector<std::vector<VideoId>> catalogs_;
  std::vector<double> cumulative_;
  double total_weight_ = 0.0;
  std::vector<std::uint32_t> user_base_;

  // Slot grid, discovered by the first replay pass.
  bool bounds_known_ = false;
  mutable std::int64_t min_timestamp_ = 0;
  mutable std::int64_t max_timestamp_ = 0;
  std::size_t num_slots_ = 0;
  std::size_t cursor_slot_ = 0;
};

}  // namespace ccdn
