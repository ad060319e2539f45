#include "cluster/topset_bitmap.h"

#include <algorithm>
#include <bit>

#include "cluster/simd_kernels.h"
#include "util/error.h"

namespace ccdn {

namespace {

/// Per-call kernel scratch: stack storage for the common shapes (the
/// tile-major pairwise sweep makes ~n²/tile calls, so a heap allocation
/// per call would show up); the spill vector only engages for huge
/// universes or tiles.
struct KernelScratch {
  static constexpr std::size_t kStack = 512;
  std::uint64_t stack[kStack];
  std::vector<std::uint64_t> spill;

  std::uint64_t* get(std::size_t need) {
    if (need <= kStack) return stack;
    spill.resize(need);
    return spill.data();
  }
};

}  // namespace

TopsetBitmap::TopsetBitmap(std::span<const std::vector<VideoId>> top_sets)
    : n_(top_sets.size()) {
  // Tally occurrences per id with a direct table over [0, max id] — ids
  // are dense catalog indices, so this is O(total ids + max id) and
  // replaces the sort of every occurrence the first version needed.
  // Sortedness (the jaccard_similarity precondition) is checked once per
  // set here instead of once per pair.
  VideoId max_id = 0;
  for (const auto& set : top_sets) {
    CCDN_REQUIRE(std::is_sorted(set.begin(), set.end()), "top set not sorted");
    if (!set.empty()) max_id = std::max(max_id, set.back());
  }
  std::vector<std::uint32_t> table_of_id(
      static_cast<std::size_t>(max_id) + 1, 0);
  for (const auto& set : top_sets) {
    for (const VideoId v : set) ++table_of_id[v];
  }

  // Collect the distinct ids (the index scan keeps `ids` sorted by id).
  std::vector<VideoId> ids;
  std::vector<std::uint32_t> counts;
  for (std::size_t id = 0; id < table_of_id.size(); ++id) {
    if (table_of_id[id] != 0) {
      ids.push_back(static_cast<VideoId>(id));
      counts.push_back(table_of_id[id]);
    }
  }
  universe_ = ids.size();
  words_ = (universe_ + 63) / 64;

  // Rank ids by (count desc, id asc): the shared popular head lands in the
  // lowest words. Deterministic — the key is a strict total order.
  std::vector<std::uint32_t> by_frequency(universe_);
  for (std::uint32_t i = 0; i < universe_; ++i) by_frequency[i] = i;
  std::sort(by_frequency.begin(), by_frequency.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (counts[a] != counts[b]) return counts[a] > counts[b];
              return ids[a] < ids[b];
            });
  // Reuse the tally table as the direct id→rank map so the packing loop
  // below is O(1) per id instead of a per-id binary search over the
  // universe. Sized by the largest id seen, which the video catalog bounds
  // (VideoId is a dense catalog index), so the table is O(catalog) once
  // per pack, not per set.
  std::vector<std::uint32_t>& rank_of_id = table_of_id;
  for (std::uint32_t r = 0; r < universe_; ++r) {
    rank_of_id[ids[by_frequency[r]]] = r;
  }

  bits_.assign(n_ * words_, 0);
  cardinality_.resize(n_);
  nonzero_begin_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    cardinality_[i] = static_cast<std::uint32_t>(top_sets[i].size());
    std::uint64_t* row = bits_.data() + i * words_;
    for (const VideoId v : top_sets[i]) {
      const std::uint32_t rank = rank_of_id[v];
      const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
      CCDN_REQUIRE((row[rank / 64] & bit) == 0, "duplicate id in top set");
      row[rank / 64] |= bit;
    }
    for (std::uint32_t w = 0; w < words_; ++w) {
      if (row[w] != 0) nonzero_.push_back(w);
    }
    nonzero_begin_[i + 1] = static_cast<std::uint32_t>(nonzero_.size());
  }
}

double TopsetBitmap::jaccard(std::size_t i, std::size_t j) const {
  CCDN_ASSERT(i < n_ && j < n_, "set index out of range");
  // Iterate the sparser row's nonzero words, gathering from the other row.
  if (nonzero_begin_[i + 1] - nonzero_begin_[i] >
      nonzero_begin_[j + 1] - nonzero_begin_[j]) {
    std::swap(i, j);
  }
  const std::uint64_t* a = bits_.data() + i * words_;
  const std::uint64_t* b = bits_.data() + j * words_;
  std::uint64_t intersection = 0;
  for (std::uint32_t k = nonzero_begin_[i]; k < nonzero_begin_[i + 1]; ++k) {
    const std::uint32_t w = nonzero_[k];
    intersection += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  const std::uint64_t union_size =
      cardinality_[i] + cardinality_[j] - intersection;
  if (union_size == 0) return 0.0;  // two empty sets, as in the scalar path
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

void TopsetBitmap::jaccard_row(std::size_t i, std::size_t j_begin,
                               std::size_t j_end,
                               std::span<double> out) const {
  CCDN_REQUIRE(i < n_ && j_begin <= j_end && j_end <= n_,
               "row range out of bounds");
  CCDN_REQUIRE(out.size() == j_end - j_begin,
               "out span must cover exactly the tile");
  if (j_begin == j_end) return;

  // Compact the anchor's nonzero words once for the whole tile: the word
  // indices drive the per-row loads and the values are the AND mask,
  // resident in L1 while tile rows stream by.
  const std::uint32_t* word_idx = nonzero_.data() + nonzero_begin_[i];
  const std::size_t num_words = nonzero_begin_[i + 1] - nonzero_begin_[i];
  const std::uint64_t* anchor_row = bits_.data() + i * words_;
  KernelScratch anchor_scratch;
  std::uint64_t* anchor_words = anchor_scratch.get(num_words);
  for (std::size_t k = 0; k < num_words; ++k) {
    anchor_words[k] = anchor_row[word_idx[k]];
  }

  const std::size_t tile = j_end - j_begin;
  KernelScratch counts_scratch;
  std::uint64_t* counts = counts_scratch.get(tile);
  const std::uint64_t* rows = bits_.data() + j_begin * words_;
  simd::jaccard_tile_counts_scalar(anchor_words, word_idx, num_words, rows,
                                   words_, tile, counts);
  simd::counts_to_similarity_scalar(counts, cardinality_.data() + j_begin,
                                    cardinality_[i], tile, out.data());
}

void TopsetBitmap::pack_tile(std::size_t j_begin, std::size_t j_end,
                             RowTile& tile) const {
  CCDN_REQUIRE(j_begin <= j_end && j_end <= n_, "tile range out of bounds");
  const std::size_t rows = j_end - j_begin;
  tile.j_begin_ = j_begin;
  tile.j_end_ = j_end;
  tile.words_.resize(words_ * rows);
  for (std::size_t t = 0; t < rows; ++t) {
    const std::uint64_t* row = bits_.data() + (j_begin + t) * words_;
    std::uint64_t* lane = tile.words_.data() + t;
    for (std::size_t w = 0; w < words_; ++w) lane[w * rows] = row[w];
  }
}

void TopsetBitmap::jaccard_row(std::size_t i, const RowTile& tile,
                               std::size_t j_begin, std::span<double> out,
                               SimdMode simd) const {
  CCDN_REQUIRE(i < n_ && tile.j_begin_ <= j_begin && j_begin <= tile.j_end_ &&
                   tile.j_end_ <= n_,
               "anchor or tile range out of bounds");
  CCDN_REQUIRE(out.size() == tile.j_end_ - j_begin,
               "out span must cover exactly the tile remainder");
  if (!resolve_simd(simd)) {
    // The transposed layout only pays off with 256-bit lanes; a scalar
    // walk would stride the cache for no gain, so delegate to row-major.
    jaccard_row(i, j_begin, tile.j_end_, out);
    return;
  }
  if (j_begin == tile.j_end_) return;

  const std::uint32_t* word_idx = nonzero_.data() + nonzero_begin_[i];
  const std::size_t num_words = nonzero_begin_[i + 1] - nonzero_begin_[i];
  const std::uint64_t* anchor_row = bits_.data() + i * words_;
  KernelScratch anchor_scratch;
  std::uint64_t* anchor_words = anchor_scratch.get(num_words);
  for (std::size_t k = 0; k < num_words; ++k) {
    anchor_words[k] = anchor_row[word_idx[k]];
  }

  const std::size_t count = tile.j_end_ - j_begin;
  KernelScratch counts_scratch;
  std::uint64_t* counts = counts_scratch.get(count);
  // Lane t of the packed tile is row tile.j_begin_ + t; anchors starting
  // inside the tile (the sweep's diagonal) enter at lane j_begin - j_begin_.
  const std::size_t stride = tile.j_end_ - tile.j_begin_;
  simd::jaccard_tile_counts_transposed_avx2(
      anchor_words, word_idx, num_words,
      tile.words_.data() + (j_begin - tile.j_begin_), stride, count, counts);
  simd::counts_to_similarity_avx2(counts, cardinality_.data() + j_begin,
                                  cardinality_[i], count, out.data());
}

}  // namespace ccdn
