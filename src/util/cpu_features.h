// Runtime ISA probing and SIMD-path selection for the hand-vectorized
// kernels (the Jd similarity engine, DESIGN.md §3.14).
//
// The AVX2 kernels live in their own translation unit compiled with
// -mavx2, so one binary carries both code paths and picks at runtime:
// `cpu_has_avx2()` is a one-time cpuid probe (memoized in a function-local
// static — deterministic for the life of the process). SimdMode is the
// seam of the Jd library calls: the schemes and CLIs always run kAuto, and
// tests and benches pin the forced modes to compare the two kernels.
#pragma once

namespace ccdn {

/// Which SIMD implementation the batch kernels should use.
///   kAuto   — AVX2 when the kernel was compiled in AND the CPU reports it,
///             else scalar. The default everywhere.
///   kScalar — force the scalar-popcount path (oracle / portability pin).
///   kAvx2   — force AVX2; a PreconditionError if the binary has no AVX2
///             kernel or the CPU lacks the feature (never silently degrades,
///             so a test that requests AVX2 really exercised AVX2).
enum class SimdMode { kAuto, kScalar, kAvx2 };

/// True when the executing CPU supports AVX2 (cpuid, probed once).
/// Always false on non-x86 targets.
[[nodiscard]] bool cpu_has_avx2() noexcept;

}  // namespace ccdn
