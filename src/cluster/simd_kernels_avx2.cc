// AVX2 batch kernels — the ONLY translation unit compiled with -mavx2.
// Everything here is reached strictly through resolve_simd(), which gates
// on the cpuid probe, so no AVX2 instruction can execute on a CPU that
// lacks the feature. When CMake cannot enable AVX2 (non-x86 toolchain or
// -DCCDN_DISABLE_AVX2=ON) the same symbols compile as throwing stubs, so
// link structure and dispatch code are identical in every build.
#include "cluster/simd_kernels.h"

#include <exception>

#include "util/error.h"

#ifdef CCDN_SIMD_AVX2_COMPILED

#include <immintrin.h>

#include <bit>
#include <limits>

namespace ccdn::simd {

namespace {

/// Per-byte popcount of `v` (Muła's vpshufb nibble-LUT method): split each
/// byte into nibbles and look both up in the 16-entry popcount table
/// replicated across lanes. Every result byte is <= 8, so a byte-wise
/// accumulator can absorb 31 of these (<= 248 < 256) before it must be
/// flushed through SAD into 64-bit lanes.
inline __m256i popcount_bytes(__m256i v) {
  const __m256i nibble_lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(nibble_lut, lo),
                         _mm256_shuffle_epi8(nibble_lut, hi));
}

/// Load steps a byte accumulator can take before a result byte could
/// overflow (31 * 8 = 248 <= 255).
constexpr std::size_t kFlushSteps = 31;

}  // namespace

void jaccard_tile_counts_transposed_avx2(
    const std::uint64_t* anchor_words, const std::uint32_t* word_idx,
    std::size_t num_words, const std::uint64_t* tile_words, std::size_t stride,
    std::size_t num_rows, std::uint64_t* counts) {
  // Sixteen tile rows (four vectors) in flight per pass: one anchor-word
  // broadcast feeds four contiguous 256-bit loads from the transposed
  // tile, so the loop is pure load/AND/popcount throughput with no
  // gathers. Each 64-bit lane owns one tile row; _mm256_sad_epu8 flushes
  // the byte accumulators straight into per-row 64-bit counts (no
  // cross-lane mixing), so the stored counts are the same exact integers
  // as the scalar kernel's.
  const __m256i zero = _mm256_setzero_si256();
  std::size_t t = 0;
  for (; t + 16 <= num_rows; t += 16) {
    __m256i acc0 = zero, acc1 = zero, acc2 = zero, acc3 = zero;
    __m256i b0 = zero, b1 = zero, b2 = zero, b3 = zero;
    std::size_t steps = 0;
    for (std::size_t k = 0; k < num_words; ++k) {
      const __m256i anchor =
          _mm256_set1_epi64x(static_cast<long long>(anchor_words[k]));
      const std::uint64_t* lanes = tile_words + word_idx[k] * stride + t;
      b0 = _mm256_add_epi8(b0, popcount_bytes(_mm256_and_si256(
          anchor, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(lanes)))));
      b1 = _mm256_add_epi8(b1, popcount_bytes(_mm256_and_si256(
          anchor, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(lanes + 4)))));
      b2 = _mm256_add_epi8(b2, popcount_bytes(_mm256_and_si256(
          anchor, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(lanes + 8)))));
      b3 = _mm256_add_epi8(b3, popcount_bytes(_mm256_and_si256(
          anchor, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(lanes + 12)))));
      if (++steps == kFlushSteps) {
        acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(b0, zero));
        acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(b1, zero));
        acc2 = _mm256_add_epi64(acc2, _mm256_sad_epu8(b2, zero));
        acc3 = _mm256_add_epi64(acc3, _mm256_sad_epu8(b3, zero));
        b0 = b1 = b2 = b3 = zero;
        steps = 0;
      }
    }
    acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(b0, zero));
    acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(b1, zero));
    acc2 = _mm256_add_epi64(acc2, _mm256_sad_epu8(b2, zero));
    acc3 = _mm256_add_epi64(acc3, _mm256_sad_epu8(b3, zero));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + t), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + t + 4), acc1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + t + 8), acc2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + t + 12), acc3);
  }
  // Remaining 0-15 rows: scalar column walk (strided but tiny).
  for (; t < num_rows; ++t) {
    std::uint64_t intersection = 0;
    for (std::size_t k = 0; k < num_words; ++k) {
      intersection += static_cast<std::uint64_t>(std::popcount(
          anchor_words[k] & tile_words[word_idx[k] * stride + t]));
    }
    counts[t] = intersection;
  }
}

void counts_to_similarity_avx2(const std::uint64_t* counts,
                               const std::uint32_t* cards,
                               std::uint32_t anchor_card, std::size_t num_rows,
                               double* out) {
  // Counts and cardinalities are bounded by the universe (< 2^31), so the
  // arithmetic fits signed 32-bit lanes and _mm256_cvtepi32_pd converts
  // exactly; vdivpd is correctly rounded like scalar division, so every
  // lane matches the scalar kernel bit for bit. Empty unions divide by a
  // blended-in 1.0 (avoiding a spurious 0/0) and the quotient lane is then
  // forced to 0.0, the two-empty-sets convention.
  const __m256i even_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i anchor = _mm_set1_epi32(static_cast<int>(anchor_card));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero_pd = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= num_rows; t += 4) {
    const __m256i counts64 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(counts + t));
    const __m128i counts32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(counts64, even_dwords));
    const __m128i unions32 = _mm_sub_epi32(
        _mm_add_epi32(anchor, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                  cards + t))),
        counts32);
    const __m256d empty = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
        _mm_cmpeq_epi32(unions32, _mm_setzero_si128())));
    const __m256d divisor = _mm256_blendv_pd(
        _mm256_cvtepi32_pd(unions32), one, empty);
    const __m256d quotient =
        _mm256_div_pd(_mm256_cvtepi32_pd(counts32), divisor);
    _mm256_storeu_pd(out + t, _mm256_blendv_pd(quotient, zero_pd, empty));
  }
  for (; t < num_rows; ++t) {
    const std::uint64_t union_size = anchor_card + cards[t] - counts[t];
    out[t] = union_size == 0
                 ? 0.0
                 : static_cast<double>(counts[t]) /
                       static_cast<double>(union_size);
  }
}

double masked_min_avx2(const double* values, const std::uint8_t* mask,
                       std::size_t count) noexcept {
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d best = inf;
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d v = _mm256_loadu_pd(values + k);
    // Widen 4 mask bytes to 64-bit lanes; lanes with mask==0 read +inf so
    // they can never win the min.
    const __m128i mask_bytes = _mm_cvtsi32_si128(static_cast<int>(
        std::uint32_t{mask[k]} | (std::uint32_t{mask[k + 1]} << 8) |
        (std::uint32_t{mask[k + 2]} << 16) |
        (std::uint32_t{mask[k + 3]} << 24)));
    const __m256i lanes = _mm256_cvtepu8_epi64(mask_bytes);
    const __m256d inactive = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(lanes, _mm256_setzero_si256()));
    best = _mm256_min_pd(best, _mm256_blendv_pd(v, inf, inactive));
  }
  const __m128d folded = _mm_min_pd(_mm256_castpd256_pd128(best),
                                    _mm256_extractf128_pd(best, 1));
  double result =
      _mm_cvtsd_f64(_mm_min_sd(folded, _mm_unpackhi_pd(folded, folded)));
  for (; k < count; ++k) {
    if (mask[k] != 0 && values[k] < result) result = values[k];
  }
  return result;
}

}  // namespace ccdn::simd

#else  // !CCDN_SIMD_AVX2_COMPILED

namespace ccdn::simd {

void jaccard_tile_counts_transposed_avx2(const std::uint64_t*,
                                         const std::uint32_t*, std::size_t,
                                         const std::uint64_t*, std::size_t,
                                         std::size_t, std::uint64_t*) {
  CCDN_REQUIRE(false, "AVX2 kernel not compiled into this binary");
}

void counts_to_similarity_avx2(const std::uint64_t*, const std::uint32_t*,
                               std::uint32_t, std::size_t, double*) {
  CCDN_REQUIRE(false, "AVX2 kernel not compiled into this binary");
}

double masked_min_avx2(const double*, const std::uint8_t*,
                       std::size_t) noexcept {
  // noexcept contract: unreachable through resolve_simd(), which refuses
  // kAvx2 when the kernel is absent; terminate loudly if called anyway.
  std::terminate();
}

}  // namespace ccdn::simd

#endif  // CCDN_SIMD_AVX2_COMPILED
