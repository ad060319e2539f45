// Clang thread-safety-analysis attribute macros (DESIGN.md §3.13).
//
// These wrap the [[clang::...]] capability attributes so the concurrency
// contracts of shared-state owners (util/mutex.h, util/thread_pool.h, the
// simulator's clone-ring lanes, the slot-source cursors) are CHECKED AT
// COMPILE TIME under clang: a guarded member touched without its mutex, a
// lock released on the wrong path, or a REQUIRES contract broken by a
// caller becomes a -Wthread-safety error in the
// CCDN_THREAD_SAFETY build (cmake -DCCDN_THREAD_SAFETY=ON, clang only; the
// static-analysis CI job runs it with -Werror=thread-safety). On GCC and
// non-capability clang builds every macro expands to nothing, so the
// annotations are free documentation.
//
// Naming follows the clang documentation's canonical macro set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) with a CCDN_
// prefix so nothing collides with abseil-style headers in downstream
// embedders.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CCDN_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CCDN_THREAD_ANNOTATION
#define CCDN_THREAD_ANNOTATION(x)
#endif

/// A type that is a synchronization capability (e.g. a mutex).
#define CCDN_CAPABILITY(x) CCDN_THREAD_ANNOTATION(capability(x))

/// An RAII type that acquires a capability in its constructor and releases
/// it in its destructor (e.g. MutexLock).
#define CCDN_SCOPED_CAPABILITY CCDN_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define CCDN_GUARDED_BY(x) CCDN_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose POINTEE is guarded by `x` (the pointer itself is
/// not).
#define CCDN_PT_GUARDED_BY(x) CCDN_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability and does not release it.
#define CCDN_ACQUIRE(...) \
  CCDN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define CCDN_RELEASE(...) \
  CCDN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire the capability; returns `ret` on success.
#define CCDN_TRY_ACQUIRE(...) \
  CCDN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability (exclusively) to call this function.
#define CCDN_REQUIRES(...) \
  CCDN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself;
/// catches self-deadlock on non-reentrant mutexes).
#define CCDN_EXCLUDES(...) CCDN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the capability guarding its result.
#define CCDN_RETURN_CAPABILITY(x) CCDN_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's synchronization is correct for reasons the
/// analysis cannot see (e.g. happens-before established by a future/pipe
/// handoff). Every use must carry a comment naming that reason.
#define CCDN_NO_THREAD_SAFETY_ANALYSIS \
  CCDN_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Assert (to the analysis, not at runtime) that the capability is held —
/// for callbacks invoked by a holder the analysis cannot track through.
#define CCDN_ASSERT_CAPABILITY(x) \
  CCDN_THREAD_ANNOTATION(assert_capability(x))
