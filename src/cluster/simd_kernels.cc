// Scalar batch kernels + SimdMode dispatch. This TU is compiled WITHOUT
// -mavx2 (beyond the project-wide -mpopcnt), so everything here is safe to
// execute on any x86-64 — including the dispatch decision itself.
#include "cluster/simd_kernels.h"

#include <bit>
#include <string>

#include "util/error.h"

namespace ccdn {

bool avx2_kernel_compiled() noexcept {
#ifdef CCDN_SIMD_AVX2_COMPILED
  return true;
#else
  return false;
#endif
}

bool avx2_kernel_available() noexcept {
  return avx2_kernel_compiled() && cpu_has_avx2();
}

bool resolve_simd(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return avx2_kernel_available();
    case SimdMode::kScalar:
      return false;
    case SimdMode::kAvx2:
      CCDN_REQUIRE(avx2_kernel_compiled(),
                   "SimdMode::kAvx2: this binary was built without the AVX2 "
                   "kernels (CCDN_DISABLE_AVX2 or non-x86 toolchain)");
      CCDN_REQUIRE(cpu_has_avx2(),
                   "SimdMode::kAvx2: this CPU does not report AVX2");
      return true;
  }
  return false;
}

namespace simd {

void jaccard_tile_counts_scalar(const std::uint64_t* anchor_words,
                                const std::uint32_t* word_idx,
                                std::size_t num_words,
                                const std::uint64_t* rows,
                                std::size_t words_per_row,
                                std::size_t num_rows, std::uint64_t* counts) {
  for (std::size_t t = 0; t < num_rows; ++t) {
    const std::uint64_t* row = rows + t * words_per_row;
    std::uint64_t intersection = 0;
    for (std::size_t k = 0; k < num_words; ++k) {
      intersection += static_cast<std::uint64_t>(
          std::popcount(anchor_words[k] & row[word_idx[k]]));
    }
    counts[t] = intersection;
  }
}

void counts_to_similarity_scalar(const std::uint64_t* counts,
                                 const std::uint32_t* cards,
                                 std::uint32_t anchor_card,
                                 std::size_t num_rows, double* out) {
  for (std::size_t t = 0; t < num_rows; ++t) {
    const std::uint64_t union_size = anchor_card + cards[t] - counts[t];
    out[t] = union_size == 0
                 ? 0.0  // two empty sets, as in the sorted-merge path
                 : static_cast<double>(counts[t]) /
                       static_cast<double>(union_size);
  }
}

}  // namespace simd
}  // namespace ccdn
