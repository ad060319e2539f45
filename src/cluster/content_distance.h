// Content-aware distance between hotspots (paper Eq. 13):
//   Jd(i, j) = 1 − Jaccard(V_i, V_j)
// where V_i is hotspot i's Top-20% requested-video set.
#pragma once

#include <span>
#include <vector>

#include "cluster/hierarchical.h"
#include "model/types.h"
#include "util/cpu_features.h"

namespace ccdn {

struct ContentDistanceOptions {
  /// Compute Jaccard with the word-parallel TopsetBitmap kernel (default)
  /// or the scalar sorted-merge path. Both produce bit-identical distances;
  /// the scalar path is kept as the differential-test oracle that the
  /// cluster tests compare against.
  bool use_bitmap = true;
  /// SIMD path for the bitmap kernel's batch rows (TopsetBitmap::
  /// jaccard_row): auto picks the AVX2 transposed-tile kernel when it is
  /// compiled in and the CPU has AVX2, scalar pins the popcount loop, avx2
  /// throws when unavailable. Every mode is bit-identical (DESIGN.md
  /// §3.14). Ignored on the sorted-merge path.
  SimdMode simd = SimdMode::kAuto;
};

/// Build the pairwise Jd matrix from per-hotspot content sets (each sorted
/// ascending by video id). Hotspots with empty sets are at distance 1 from
/// everything (no overlap evidence).
[[nodiscard]] DistanceMatrix content_distance_matrix(
    std::span<const std::vector<VideoId>> top_sets,
    const ContentDistanceOptions& options = {});

/// The pairs with Jd <= cut, from the same sweep and kernels as
/// content_distance_matrix, so every distance is bit-identical to the
/// matrix entry; no n×n buffer is held. What the schemes cluster on.
[[nodiscard]] CutGraph content_cut_graph(
    std::span<const std::vector<VideoId>> top_sets, double cut,
    const ContentDistanceOptions& options = {});

}  // namespace ccdn
