// Word-parallel content-similarity kernel for the Gc pipeline.
//
// The Jd matrix (paper Eq. 13) needs Jaccard(V_i, V_j) over every hotspot
// pair — H² evaluations per slot. The scalar path walks two sorted id
// vectors element by element (and re-validates sortedness per pair).
// TopsetBitmap instead packs every top-set into 64-bit blocks over a
// compact universe so one AND+popcount processes 64 candidate ids at once:
//
//  1. *Universe remap.* Only ids that appear in some top-set matter. They
//     are remapped to a dense range [0, U), ordered by descending
//     occurrence count across sets (ties by ascending id). Zipf-skewed
//     workloads share a popular head, so frequency ordering packs the ids
//     most likely to be in any given set into the lowest words, which
//     keeps each set's nonzero-word list short. Packing resolves each id
//     through a direct id→rank table built once after the run-length pass,
//     so the whole pack is O(total ids + max id).
//  2. *Block layout.* Set i owns the row bits_[i*words .. (i+1)*words);
//     bit d of the row is id rank d. Rows are contiguous, so a pairwise
//     sweep over j streams row j linearly through the cache.
//  3. *Sparse-gather intersection.* |V_i ∩ V_j| = Σ popcount(a[w] & b[w]),
//     iterating only the nonzero words of the *smaller* set — O(min
//     nonzero words) per pair instead of O(|V_i|+|V_j|) element steps.
//     The union comes from the precomputed cardinalities, and sortedness
//     of the input sets is validated once per set at pack time, not once
//     per pair.
//  4. *Batch rows.* jaccard_row() evaluates one anchor row against a tile
//     of consecutive rows in a single pass: the anchor's nonzero-word
//     indices and values are compacted once and stay hot while the tile
//     rows stream through. Two kernels exist (DESIGN.md §3.14): the
//     row-major overload is the scalar popcount kernel, and the RowTile
//     overload runs the AVX2 kernel over a transposed tile when SimdMode
//     resolves to AVX2. Both accumulate the same exact integer
//     intersection counts.
//
// The computed similarity is bit-identical to jaccard_similarity under
// every kernel: all paths divide the same exact integer intersection and
// union counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/types.h"
#include "util/cpu_features.h"

namespace ccdn {

class TopsetBitmap {
 public:
  /// Word-major (transposed) copy of a row tile [j_begin, j_end): lane t of
  /// word w lives at words_[w * rows + t], so the AVX2 kernel reads the
  /// same word of consecutive rows with one contiguous 256-bit load and
  /// broadcasts the anchor word — no gathers at all. Built once per tile by
  /// pack_tile() and reused across every anchor of the tile-major sweep
  /// (the transpose is O(rows x words), amortised over ~n anchors).
  /// Reassignable: pack_tile reuses the buffer's capacity across tiles.
  class RowTile {
   public:
    RowTile() = default;
    [[nodiscard]] std::size_t j_begin() const noexcept { return j_begin_; }
    [[nodiscard]] std::size_t j_end() const noexcept { return j_end_; }

   private:
    friend class TopsetBitmap;
    std::vector<std::uint64_t> words_;  // words_per_set x rows, word-major
    std::size_t j_begin_ = 0;
    std::size_t j_end_ = 0;
  };

  /// Pack `top_sets` (each sorted ascending by video id, duplicates
  /// forbidden). O(total ids + max id) — the max-id term is the direct
  /// id→rank remap table, bounded by the video-catalog size.
  explicit TopsetBitmap(std::span<const std::vector<VideoId>> top_sets);

  [[nodiscard]] std::size_t num_sets() const noexcept { return n_; }
  /// Distinct ids across all sets.
  [[nodiscard]] std::size_t universe_size() const noexcept {
    return universe_;
  }
  /// 64-bit blocks per packed set row.
  [[nodiscard]] std::size_t words_per_set() const noexcept { return words_; }

  /// Jaccard(V_i, V_j); exactly the value jaccard_similarity returns on the
  /// original sorted sets (0.0 when both sets are empty).
  [[nodiscard]] double jaccard(std::size_t i, std::size_t j) const;

  /// Batch evaluation with the scalar kernel: out[t] = Jaccard(V_i,
  /// V_{j_begin+t}) for the tile [j_begin, j_end); out.size() must equal
  /// j_end - j_begin. Every value is bit-identical to jaccard(i, j) — and
  /// therefore to jaccard_similarity (the kernel computes exact integer
  /// counts; see DESIGN.md §3.14). Thread-safe: concurrent calls on a
  /// shared const bitmap only read the packed state.
  void jaccard_row(std::size_t i, std::size_t j_begin, std::size_t j_end,
                   std::span<double> out) const;

  /// Transpose rows [j_begin, j_end) into `tile` for the overload below.
  void pack_tile(std::size_t j_begin, std::size_t j_end, RowTile& tile) const;

  /// Batch evaluation against a pre-transposed tile: out[t] =
  /// Jaccard(V_i, V_{j_begin+t}) for t in [0, tile.j_end() - j_begin);
  /// j_begin may sit inside the tile (the sweep's diagonal anchors start at
  /// i + 1). Runs the AVX2 transposed kernel when `simd` resolves to AVX2
  /// (kAvx2 throws when that path is unavailable) and otherwise delegates
  /// to the row-major scalar overload (a transposed scalar walk would
  /// stride the cache for no gain). Bit-identical either way — the two
  /// kernels accumulate the same exact integer counts.
  void jaccard_row(std::size_t i, const RowTile& tile, std::size_t j_begin,
                   std::span<double> out,
                   SimdMode simd = SimdMode::kAuto) const;

  /// Raw packed rows (n_ x words_per_set 64-bit blocks) — layout oracle
  /// for tests and fodder for out-of-band kernels.
  [[nodiscard]] std::span<const std::uint64_t> packed_bits() const noexcept {
    return bits_;
  }

 private:
  std::size_t n_ = 0;
  std::size_t universe_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;          // n_ rows x words_ blocks
  std::vector<std::uint32_t> cardinality_;   // |V_i|
  std::vector<std::uint32_t> nonzero_;       // concatenated nonzero-word lists
  std::vector<std::uint32_t> nonzero_begin_; // n_+1 offsets into nonzero_
};

}  // namespace ccdn
