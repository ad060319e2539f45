#include "util/cpu_features.h"

namespace ccdn {

bool cpu_has_avx2() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports caches the cpuid result in libgcc/compiler-rt;
  // the local static makes the memoization explicit and keeps the call
  // branch-free after first use.
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

}  // namespace ccdn
