#pragma once

// One OpenMP parallel region that ThreadSanitizer can check.
//
// GCC's libgomp is not instrumented and synchronizes through futexes, so
// TSan sees neither the fork nor the join of a region, and the block of
// shared variables the compiler writes on the calling thread's stack at
// every fork looks as if it raced with the workers' reads of it. Here the
// region itself is left uninstrumented and both edges are declared to
// TSan by hand; `body`, and everything it calls, stays instrumented, so a
// real race between the threads running it is still reported. Without
// TSan this is a plain `#pragma omp parallel`.

#if defined(__SANITIZE_THREAD__)
#define HPCQC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HPCQC_TSAN 1
#endif
#endif

#ifdef HPCQC_TSAN
#include <sanitizer/tsan_interface.h>
#define HPCQC_NO_TSAN __attribute__((no_sanitize("thread")))
#else
#define HPCQC_NO_TSAN
#endif

namespace hpcqc {

/// Runs `body()` once on every thread of an OpenMP team (on the calling
/// thread alone when `parallel` is false). `body` may contain orphaned
/// worksharing directives such as `#pragma omp for`.
template <class Body>
HPCQC_NO_TSAN void parallel_region(bool parallel, const Body& body) {
#ifdef HPCQC_TSAN
  void* sync = const_cast<Body*>(&body);
  __tsan_release(sync);  // fork
#endif
#pragma omp parallel if (parallel)
  {
#ifdef HPCQC_TSAN
    __tsan_acquire(sync);
#endif
    body();
#ifdef HPCQC_TSAN
    __tsan_release(sync);
#endif
  }
#ifdef HPCQC_TSAN
  __tsan_acquire(sync);  // join
#endif
}

}  // namespace hpcqc
