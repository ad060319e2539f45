#include "cluster/content_distance.h"

#include <algorithm>

#include "cluster/simd_kernels.h"
#include "cluster/topset_bitmap.h"
#include "stats/correlation.h"

namespace ccdn {

namespace {

/// jaccard_row tile: 384 rows x ~128 words x 8 B ≈ 384 KB at city-scale
/// universes — small enough to stay L2-resident across the whole anchor
/// loop of the tile-major sweep below, wide enough that the 16-lane
/// transposed kernel rarely runs its scalar tail.
constexpr std::size_t kTileRows = 384;

/// Fill the condensed matrix pair by pair (the sorted-merge oracle path):
/// row i is the contiguous slice starting at i*n - i*(i+1)/2.
template <typename Kernel>
void fill_pairwise(std::span<double> out, std::size_t n,
                   const Kernel& jaccard) {
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      out[cursor++] = 1.0 - jaccard(i, j);
    }
  }
}

/// Batch fill for the bitmap kernel, tile-major: the outer loop walks
/// tiles of consecutive j rows and the inner loop runs every anchor
/// against the same tile, so the tile's packed rows stay L2-resident
/// across the anchors' jaccard_row calls instead of being re-streamed from
/// L3 once per anchor (each pair (i, j) is still evaluated exactly once —
/// the tiles partition every anchor's column range). Identical doubles to
/// the pair-by-pair path for either kernel: both produce exact integer
/// counts per pair, independent of when the pair's tile is visited.
void fill_batch(std::span<double> out, std::size_t n,
                const TopsetBitmap& bitmap, bool use_avx2) {
  const auto row_base = [n](std::size_t i) {
    return i * n - i * (i + 1) / 2;
  };
  TopsetBitmap::RowTile packed;  // buffer capacity persists across tiles
  for (std::size_t j0 = 1; j0 < n; j0 += kTileRows) {
    const std::size_t j1 = std::min(n, j0 + kTileRows);
    // The transposed copy costs O(tile x words) once and turns every
    // anchor's strided row reads into contiguous loads — worth it only on
    // AVX2.
    if (use_avx2) bitmap.pack_tile(j0, j1, packed);
    // Anchors with at least one pair inside [j0, j1) need i + 1 < j1.
    for (std::size_t i = 0; i + 1 < j1; ++i) {
      const std::size_t j_begin = std::max(j0, i + 1);
      const auto tile =
          out.subspan(row_base(i) + (j_begin - i - 1), j1 - j_begin);
      if (use_avx2) {
        bitmap.jaccard_row(i, packed, j_begin, tile, SimdMode::kAvx2);
      } else {
        bitmap.jaccard_row(i, j_begin, j1, tile);
      }
      for (double& d : tile) d = 1.0 - d;
    }
  }
}

}  // namespace

DistanceMatrix content_distance_matrix(
    std::span<const std::vector<VideoId>> top_sets,
    const ContentDistanceOptions& options) {
  const std::size_t n = top_sets.size();
  DistanceMatrix matrix(n);
  if (options.use_bitmap) {
    const bool use_avx2 = resolve_simd(options.simd);
    fill_batch(matrix.condensed(), n, TopsetBitmap(top_sets), use_avx2);
  } else {
    fill_pairwise(matrix.condensed(), n,
                  [top_sets](std::size_t i, std::size_t j) {
                    return jaccard_similarity(top_sets[i], top_sets[j]);
                  });
  }
  return matrix;
}

}  // namespace ccdn
