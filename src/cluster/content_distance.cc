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

// Both sweeps hand each row segment (i, j_begin .. j_begin+len) to a sink:
// `sink.row(i, j_begin, len)` returns the buffer the kernel fills with
// distances, and `sink.emit(i, j_begin, distances)` then sees them.

/// Pair-by-pair sweep with the sorted-merge oracle kernel, one whole row
/// i (pairs (i, i+1..n-1)) per segment.
template <typename Sink>
void sweep_pairwise(std::span<const std::vector<VideoId>> top_sets,
                    Sink& sink) {
  const std::size_t n = top_sets.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const auto row = sink.row(i, i + 1, n - 1 - i);
    for (std::size_t j = i + 1; j < n; ++j) {
      row[j - i - 1] = 1.0 - jaccard_similarity(top_sets[i], top_sets[j]);
    }
    sink.emit(i, i + 1, row);
  }
}

/// Batch sweep for the bitmap kernel, tile-major: the outer loop walks
/// tiles of consecutive j rows and the inner loop runs every anchor
/// against the same tile, so the tile's packed rows stay L2-resident
/// across the anchors' jaccard_row calls instead of being re-streamed from
/// L3 once per anchor (each pair (i, j) is still evaluated exactly once —
/// the tiles partition every anchor's column range). Identical doubles to
/// the pair-by-pair path for either kernel: both produce exact integer
/// counts per pair, independent of when the pair's tile is visited.
template <typename Sink>
void sweep_tiles(std::size_t n, const TopsetBitmap& bitmap, bool use_avx2,
                 Sink& sink) {
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
      const auto tile = sink.row(i, j_begin, j1 - j_begin);
      if (use_avx2) {
        bitmap.jaccard_row(i, packed, j_begin, tile, SimdMode::kAvx2);
      } else {
        bitmap.jaccard_row(i, j_begin, j1, tile);
      }
      for (double& d : tile) d = 1.0 - d;
      sink.emit(i, j_begin, tile);
    }
  }
}

template <typename Sink>
void sweep(std::span<const std::vector<VideoId>> top_sets,
           const ContentDistanceOptions& options, Sink& sink) {
  if (options.use_bitmap) {
    const bool use_avx2 = resolve_simd(options.simd);
    sweep_tiles(top_sets.size(), TopsetBitmap(top_sets), use_avx2, sink);
  } else {
    sweep_pairwise(top_sets, sink);
  }
}

/// Writes each segment in place into the condensed matrix, whose row i is
/// the contiguous slice starting at i*n - i*(i+1)/2.
struct MatrixSink {
  std::span<double> condensed;
  std::size_t n;

  std::span<double> row(std::size_t i, std::size_t j_begin, std::size_t len) {
    return condensed.subspan(i * n - i * (i + 1) / 2 + (j_begin - i - 1),
                             len);
  }
  void emit(std::size_t, std::size_t, std::span<const double>) {}
};

/// Keeps the pairs at or under the cut. Pairs arrive row-major from the
/// sorted-merge sweep, and anchor-ascending within a tile, tile by tile,
/// from the bitmap sweep. Either way every item meets its lower
/// neighbours (on the bitmap sweep, all within the tile holding it as a
/// column) before its higher ones, each in ascending order — CutGraph's
/// listing contract.
struct CutSink {
  double cut;
  std::vector<double> buffer;
  std::vector<CutGraph::Pair> pairs;

  std::span<double> row(std::size_t, std::size_t, std::size_t len) {
    if (buffer.size() < len) buffer.resize(len);
    return std::span(buffer).first(len);
  }
  void emit(std::size_t i, std::size_t j_begin,
            std::span<const double> distances) {
    for (std::size_t t = 0; t < distances.size(); ++t) {
      if (distances[t] <= cut) {
        pairs.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j_begin + t),
                         distances[t]});
      }
    }
  }
};

}  // namespace

DistanceMatrix content_distance_matrix(
    std::span<const std::vector<VideoId>> top_sets,
    const ContentDistanceOptions& options) {
  DistanceMatrix matrix(top_sets.size());
  MatrixSink sink{matrix.condensed(), top_sets.size()};
  sweep(top_sets, options, sink);
  return matrix;
}

CutGraph content_cut_graph(std::span<const std::vector<VideoId>> top_sets,
                           double cut, const ContentDistanceOptions& options) {
  CutSink sink{cut, {}, {}};
  sweep(top_sets, options, sink);
  return CutGraph(top_sets.size(), cut, sink.pairs);
}

}  // namespace ccdn
