// Differential and property tests for the batched Jd engine (DESIGN.md
// §3.14): both TopsetBitmap::jaccard_row kernels — the row-major scalar
// one and the AVX2 one over a transposed tile — must be bit-identical to
// the per-pair jaccard() kernel and to the scalar sorted-merge
// jaccard_similarity for every SimdMode, tile geometry, and adversarial
// universe size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
#include "cluster/simd_kernels.h"
#include "cluster/topset_bitmap.h"
#include "stats/correlation.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

/// Every SimdMode the running host can actually execute.
std::vector<SimdMode> runnable_modes() {
  std::vector<SimdMode> modes{SimdMode::kAuto, SimdMode::kScalar};
  if (avx2_kernel_available()) modes.push_back(SimdMode::kAvx2);
  return modes;
}

/// Random sorted id set of the given size drawn from [0, universe).
std::vector<VideoId> random_set(Rng& rng, std::size_t size,
                                std::uint32_t universe) {
  std::vector<VideoId> ids;
  while (ids.size() < size) {
    const auto v = static_cast<VideoId>(rng.index(universe));
    if (std::find(ids.begin(), ids.end(), v) == ids.end()) ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Check the tiled jaccard_row (pack_tile, then the RowTile overload)
/// against both oracles for every anchor, every tile split of the rows,
/// and every runnable SimdMode.
void expect_row_matches_oracles(const std::vector<std::vector<VideoId>>& sets,
                                std::size_t tile_rows) {
  const TopsetBitmap bitmap(sets);
  const std::size_t n = sets.size();
  TopsetBitmap::RowTile tile;
  for (const SimdMode mode : runnable_modes()) {
    for (std::size_t j = 0; j < n; j += tile_rows) {
      const std::size_t j_end = std::min(n, j + tile_rows);
      bitmap.pack_tile(j, j_end, tile);
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> out(j_end - j);
        bitmap.jaccard_row(i, tile, j, out, mode);
        for (std::size_t t = 0; t < out.size(); ++t) {
          EXPECT_EQ(out[t], bitmap.jaccard(i, j + t))
              << "mode " << static_cast<int>(mode) << " anchor " << i
              << " row " << j + t << " tile " << tile_rows;
          EXPECT_EQ(out[t], jaccard_similarity(sets[i], sets[j + t]))
              << "mode " << static_cast<int>(mode) << " anchor " << i
              << " row " << j + t << " tile " << tile_rows;
        }
      }
    }
  }
}

TEST(JaccardRow, AdversarialSetsMatchBothOracles) {
  // Both-empty, disjoint, identical, singleton, subset, interleaved —
  // three copies, so tiles are wide enough for the 16-row AVX2 blocks.
  const std::vector<std::vector<VideoId>> cases{
      {},        {},       {1, 2, 3}, {1, 2, 3},  {10, 20},
      {30, 40},  {7},      {7},       {5},        {1, 2, 3, 4, 5, 6},
      {2, 4, 6}, {1, 3, 5, 7}};
  std::vector<std::vector<VideoId>> sets;
  for (int copy = 0; copy < 3; ++copy) {
    sets.insert(sets.end(), cases.begin(), cases.end());
  }
  // Tile sizes 1 (single-element tiles), 5 (lane tail only), 16 (one full
  // 16-row block), 17 (a block plus a one-row tail), and one tile spanning
  // everything (two blocks plus a tail).
  for (const std::size_t tile : {std::size_t{1}, std::size_t{5},
                                 std::size_t{16}, std::size_t{17},
                                 sets.size()}) {
    expect_row_matches_oracles(sets, tile);
  }
}

TEST(JaccardRow, UniverseSizesCrossingWordAndLaneBoundaries) {
  // The packed universe is the number of distinct ids, so a set covering
  // [0, U) pins universe_size() == U. Straddle the 64-bit word boundaries
  // (63/64/65, 127/128/129, 255/256/257) and the AVX2 kernel's byte-
  // accumulator flush every 31 words (1984 = 31 full words, 2048 = 32):
  // the full set against itself puts 8 in every byte at every step.
  Rng rng(20260809);
  for (const std::uint32_t universe : {1u, 63u, 64u, 65u, 127u, 128u, 129u,
                                       255u, 256u, 257u, 320u, 1984u,
                                       2048u}) {
    std::vector<std::vector<VideoId>> sets;
    std::vector<VideoId> full(universe);
    for (std::uint32_t v = 0; v < universe; ++v) full[v] = v;
    sets.push_back(full);                 // pins the universe
    sets.push_back({});                   // empty vs everything
    sets.push_back({0});                  // lowest-rank singleton
    sets.push_back({universe - 1});       // highest-rank singleton
    sets.push_back(full);                 // full vs full in a vector lane
    for (int k = 0; k < 15; ++k) {
      sets.push_back(random_set(rng, rng.index(universe), universe));
    }
    const TopsetBitmap bitmap(sets);
    ASSERT_EQ(bitmap.universe_size(), universe);
    expect_row_matches_oracles(sets, 17);
  }
}

TEST(JaccardRow, EmptyTileAndBoundsContracts) {
  const std::vector<std::vector<VideoId>> sets{{1, 2}, {2, 3}, {4}};
  const TopsetBitmap bitmap(sets);
  // Empty tile is a no-op.
  bitmap.jaccard_row(0, 2, 2, {});
  std::vector<double> out(2);
  EXPECT_THROW(bitmap.jaccard_row(3, 0, 2, out), PreconditionError);
  EXPECT_THROW(bitmap.jaccard_row(0, 2, 1, out), PreconditionError);
  EXPECT_THROW(bitmap.jaccard_row(0, 0, 4, out), PreconditionError);
  std::vector<double> wrong_size(1);
  EXPECT_THROW(bitmap.jaccard_row(0, 0, 2, wrong_size), PreconditionError);
}

TEST(JaccardRow, ForcedAvx2NeverSilentlyDegrades) {
  if (avx2_kernel_available()) {
    EXPECT_TRUE(resolve_simd(SimdMode::kAvx2));
    EXPECT_TRUE(resolve_simd(SimdMode::kAuto));
  } else {
    EXPECT_THROW((void)resolve_simd(SimdMode::kAvx2), PreconditionError);
    EXPECT_FALSE(resolve_simd(SimdMode::kAuto));
    const std::vector<std::vector<VideoId>> sets{{1}, {2}};
    const TopsetBitmap bitmap(sets);
    TopsetBitmap::RowTile tile;
    bitmap.pack_tile(1, 2, tile);
    std::vector<double> out(1);
    EXPECT_THROW(bitmap.jaccard_row(0, tile, 1, out, SimdMode::kAvx2),
                 PreconditionError);
  }
  EXPECT_FALSE(resolve_simd(SimdMode::kScalar));
  // Availability = compiled in AND cpu probe; never available otherwise.
  EXPECT_EQ(avx2_kernel_available(),
            avx2_kernel_compiled() && cpu_has_avx2());
}

TEST(JaccardRow, TransposedTileMatchesRowMajorAtEveryOffset) {
  // The RowTile overload (the kernel the tile-major sweep runs) must agree
  // bitwise with the row-major scalar kernel for every anchor, every
  // in-tile entry offset (the sweep's diagonal anchors start mid-tile),
  // and tile widths straddling the 16-lane kernel width.
  Rng rng(777);
  std::vector<std::vector<VideoId>> sets;
  for (std::size_t i = 0; i < 41; ++i) {
    sets.push_back(random_set(rng, rng.index(60), 500));
  }
  sets.push_back({});
  const TopsetBitmap bitmap(sets);
  const std::size_t n = sets.size();
  for (const SimdMode mode : runnable_modes()) {
    for (const std::size_t tile_rows :
         {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          n}) {
      TopsetBitmap::RowTile tile;  // reused: pack_tile must fully reassign
      for (std::size_t j0 = 0; j0 < n; j0 += tile_rows) {
        const std::size_t j1 = std::min(n, j0 + tile_rows);
        bitmap.pack_tile(j0, j1, tile);
        ASSERT_EQ(tile.j_begin(), j0);
        ASSERT_EQ(tile.j_end(), j1);
        for (std::size_t i = 0; i < n; i += 7) {
          for (const std::size_t j_begin : {j0, (j0 + j1) / 2, j1}) {
            std::vector<double> got(j1 - j_begin);
            std::vector<double> want(j1 - j_begin);
            bitmap.jaccard_row(i, tile, j_begin, got, mode);
            bitmap.jaccard_row(i, j_begin, j1, want);
            for (std::size_t t = 0; t < got.size(); ++t) {
              ASSERT_EQ(got[t], want[t])
                  << "mode " << static_cast<int>(mode) << " anchor " << i
                  << " tile [" << j0 << ", " << j1 << ") enter " << j_begin;
            }
          }
        }
      }
    }
  }
}

TEST(JaccardRow, TransposedTileBoundsContracts) {
  const std::vector<std::vector<VideoId>> sets{{1, 2}, {2, 3}, {4}, {1}};
  const TopsetBitmap bitmap(sets);
  TopsetBitmap::RowTile tile;
  bitmap.pack_tile(1, 3, tile);
  std::vector<double> out(2);
  std::vector<double> empty_out;
  bitmap.jaccard_row(0, tile, 3, empty_out);  // empty remainder is a no-op
  EXPECT_THROW(bitmap.jaccard_row(4, tile, 1, out), PreconditionError);
  EXPECT_THROW(bitmap.jaccard_row(0, tile, 0, out), PreconditionError);
  std::vector<double> wrong_size(1);
  EXPECT_THROW(bitmap.jaccard_row(0, tile, 1, wrong_size), PreconditionError);
}

TEST(ContentDistance, SimdThreadsTileMatrixAllBitIdentical) {
  // content_distance_matrix sweeps columns 1..n-1 in 384-row tiles; these
  // set counts give 383, 384 and 385 columns (a tile one row short, one
  // exact tile, one row over) and 769 (two tiles and a one-row third).
  Rng rng(4711);
  for (const std::size_t n : {384u, 385u, 386u, 770u}) {
    std::vector<std::vector<VideoId>> sets;
    for (std::size_t i = 0; i < n; ++i) {
      sets.push_back(random_set(rng, rng.index(30), 300));
    }
    // The sorted-merge path is the cross-kernel oracle.
    const DistanceMatrix oracle =
        content_distance_matrix(sets, {.use_bitmap = false});
    const auto a = oracle.condensed();
    for (const SimdMode mode : runnable_modes()) {
      const DistanceMatrix matrix =
          content_distance_matrix(sets, {.use_bitmap = true, .simd = mode});
      const auto b = matrix.condensed();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s], b[s]) << "mode " << static_cast<int>(mode) << " sets "
                              << n << " slot " << s;
      }
    }
  }
}

TEST(ContentDistance, CutGraphMatchesMatrixInCutEntries) {
  // content_cut_graph runs the matrix's sweep with a cut sink instead of a
  // matrix sink: on both sides of the 384-row tile (the sweep's columns
  // 1..n-1 fill one tile exactly at 385 sets and two at 769), for every
  // kernel and the sorted-merge path, its rows must be exactly the matrix
  // entries at or under the cut, ascending, with bit-identical distances.
  // Empty sets (Jd 1 to everything) and repeated sets (Jd 0) sit on the
  // cuts.
  Rng rng(4712);
  for (const std::size_t n : {383u, 384u, 385u, 386u, 769u, 770u}) {
    std::vector<std::vector<VideoId>> sets;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 7 == 3) {
        sets.emplace_back();
      } else if (i % 11 == 5) {
        std::vector<VideoId> repeat = sets[i / 2];
        sets.push_back(std::move(repeat));
      } else {
        sets.push_back(random_set(rng, 1 + rng.index(12), 40));
      }
    }
    const DistanceMatrix matrix =
        content_distance_matrix(sets, {.use_bitmap = false});
    std::vector<ContentDistanceOptions> kernels{{.use_bitmap = false}};
    for (const SimdMode mode : runnable_modes()) {
      kernels.push_back({.use_bitmap = true, .simd = mode});
    }
    for (const double cut : {0.0, 0.5, 0.9, 1.0}) {
      for (const ContentDistanceOptions& options : kernels) {
        const CutGraph graph = content_cut_graph(sets, cut, options);
        ASSERT_EQ(graph.size(), n);
        EXPECT_EQ(graph.cut(), cut);
        std::size_t entries = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto ids = graph.neighbours(i);
          const auto ds = graph.distances(i);
          std::size_t t = 0;
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i || matrix.at(i, j) > cut) continue;
            ASSERT_LT(t, ids.size()) << "n " << n << " cut " << cut;
            ASSERT_EQ(ids[t], j) << "n " << n << " cut " << cut << " row "
                                 << i;
            ASSERT_EQ(ds[t], matrix.at(i, j));
            ++t;
          }
          ASSERT_EQ(t, ids.size()) << "n " << n << " cut " << cut;
          entries += t;
        }
        if (cut == 1.0) {
          EXPECT_EQ(entries, n * (n - 1));
        }
      }
    }
  }
}

TEST(TopsetBitmap, PackLayoutMatchesBinarySearchReference) {
  // Satellite contract for the O(total ids) pack rewrite: the direct
  // id→rank remap must reproduce the exact bits_ layout of the original
  // per-id binary-search pack, reimplemented here verbatim as the oracle.
  Rng rng(31337);
  std::vector<std::vector<VideoId>> sets;
  for (std::size_t i = 0; i < 50; ++i) {
    sets.push_back(random_set(rng, rng.index(40), 600));
  }
  sets.push_back({});  // empty rows must stay all-zero words

  const TopsetBitmap bitmap(sets);
  const std::size_t words = bitmap.words_per_set();

  // Reference pack: run-length distinct ids, rank by (count desc, id asc),
  // then resolve each id through std::lower_bound per occurrence.
  std::vector<VideoId> occurrences;
  for (const auto& set : sets) {
    occurrences.insert(occurrences.end(), set.begin(), set.end());
  }
  std::sort(occurrences.begin(), occurrences.end());
  std::vector<VideoId> ids;
  std::vector<std::uint32_t> counts;
  for (std::size_t i = 0; i < occurrences.size();) {
    std::size_t j = i;
    while (j < occurrences.size() && occurrences[j] == occurrences[i]) ++j;
    ids.push_back(occurrences[i]);
    counts.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }
  ASSERT_EQ(bitmap.universe_size(), ids.size());
  std::vector<std::uint32_t> by_frequency(ids.size());
  for (std::uint32_t i = 0; i < by_frequency.size(); ++i) by_frequency[i] = i;
  std::sort(by_frequency.begin(), by_frequency.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (counts[a] != counts[b]) return counts[a] > counts[b];
              return ids[a] < ids[b];
            });
  std::vector<std::uint32_t> rank_of_sorted(ids.size());
  for (std::uint32_t r = 0; r < by_frequency.size(); ++r) {
    rank_of_sorted[by_frequency[r]] = r;
  }
  std::vector<std::uint64_t> expected(sets.size() * words, 0);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (const VideoId v : sets[i]) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), v);
      const auto sorted_index =
          static_cast<std::size_t>(it - ids.begin());
      const std::uint32_t rank = rank_of_sorted[sorted_index];
      expected[i * words + rank / 64] |= std::uint64_t{1} << (rank % 64);
    }
  }

  const auto actual = bitmap.packed_bits();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    ASSERT_EQ(actual[w], expected[w]) << "packed word " << w;
  }
}

}  // namespace
}  // namespace ccdn
