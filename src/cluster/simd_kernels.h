// Batch SIMD kernels for the Jd build (DESIGN.md §3.14):
//
//  * `jaccard_tile_counts_*` — one anchor row of a TopsetBitmap against a
//    tile of consecutive rows: the anchor's nonzero-word index list and the
//    matching word values stay resident (registers/L1) while the tile rows
//    stream through. The scalar kernel reads row-major rows; the AVX2
//    kernel reads a word-major (transposed) tile, ANDs four contiguous
//    rows' words against a broadcast anchor word per load, and popcounts
//    in-register with a vpshufb nibble LUT accumulated via
//    `_mm256_sad_epu8` (Muła's method; the Harley–Seal family). Both
//    produce the IDENTICAL exact integer intersection counts — 64-bit
//    integer additions of popcounts are associative, so lane order cannot
//    change a single bit of the derived Jaccard double.
//  * `counts_to_similarity_*` — the exact counts to Jaccard doubles, with
//    correctly rounded IEEE division in both variants.
//
// The AVX2 variants live in simd_kernels_avx2.cc, the only TU compiled
// with -mavx2 (CMake sets CCDN_SIMD_AVX2_COMPILED on the cluster library
// when the compiler takes the flag and CCDN_DISABLE_AVX2 is off). Callers
// never invoke them directly — they go through SimdMode dispatch
// (resolve_simd below), which only selects AVX2 after the cpuid probe, so
// the binary is safe on any x86-64 and degrades to scalar elsewhere.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

namespace ccdn {

/// True when this binary contains the AVX2 kernels (compile-time property).
[[nodiscard]] bool avx2_kernel_compiled() noexcept;

/// True when the AVX2 kernels are compiled in AND the CPU reports AVX2.
[[nodiscard]] bool avx2_kernel_available() noexcept;

/// Collapse a SimdMode to the concrete kernel choice: kAuto picks AVX2 when
/// available, kScalar always resolves scalar, kAvx2 throws
/// PreconditionError when the AVX2 path cannot run (never a silent
/// downgrade). Returns true for AVX2.
[[nodiscard]] bool resolve_simd(SimdMode mode);

namespace simd {

/// counts[t] = Σ_k popcount(anchor_words[k] & rows[t * words_per_row +
/// word_idx[k]]) for t in [0, num_rows): the exact intersection
/// cardinality of the anchor set with each tile row. `anchor_words[k]` is
/// the anchor row's word at index `word_idx[k]` (pre-compacted by the
/// caller); `rows` points at the first tile row.
void jaccard_tile_counts_scalar(const std::uint64_t* anchor_words,
                                const std::uint32_t* word_idx,
                                std::size_t num_words,
                                const std::uint64_t* rows,
                                std::size_t words_per_row,
                                std::size_t num_rows, std::uint64_t* counts);

/// AVX2 variant for a pre-transposed tile: tile_words[w * stride + t] is
/// word w of tile row t, so the same word of 4 consecutive rows is one
/// contiguous 256-bit load ANDed against a broadcast anchor word — each
/// 64-bit lane accumulates its own row's popcount and no gather
/// instructions are needed. counts[t] is the exact intersection
/// cardinality for t in [0, num_rows) (num_rows <= stride; callers may
/// offset tile_words by a lane to start mid-tile). Bit-identical counts to
/// the scalar kernel. Only callable when avx2_kernel_available()
/// (enforced by resolve_simd; calling it on a CPU without AVX2 is
/// undefined).
void jaccard_tile_counts_transposed_avx2(
    const std::uint64_t* anchor_words, const std::uint32_t* word_idx,
    std::size_t num_words, const std::uint64_t* tile_words, std::size_t stride,
    std::size_t num_rows, std::uint64_t* counts);

/// out[t] = counts[t] / (anchor_card + cards[t] - counts[t]) as a double,
/// or 0.0 when that union is empty (two empty sets) — the Jaccard
/// similarity from exact intersection counts. All operands are integers
/// below 2^53 (exactly representable) and IEEE division is correctly
/// rounded, so scalar and AVX2 produce identical bits per element.
void counts_to_similarity_scalar(const std::uint64_t* counts,
                                 const std::uint32_t* cards,
                                 std::uint32_t anchor_card,
                                 std::size_t num_rows, double* out);

/// AVX2 variant (packed 32-bit integer union + vdivpd); bit-identical.
void counts_to_similarity_avx2(const std::uint64_t* counts,
                               const std::uint32_t* cards,
                               std::uint32_t anchor_card, std::size_t num_rows,
                               double* out);

}  // namespace simd
}  // namespace ccdn
