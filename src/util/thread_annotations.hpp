#pragma once
// Compile-time concurrency contracts: clang thread-safety-analysis macros and
// the annotated synchronization primitives the rest of the tree builds on.
//
// Clang's `-Wthread-safety` analysis proves lock discipline at compile time:
// a member declared `LIQUID_GUARDED_BY(mu)` cannot be touched on any path
// that does not hold `mu`, a function declared `LIQUID_EXCLUDES(mu)` cannot
// be called while holding it, and the static-analysis CI job turns
// violations into build failures (`-Wthread-safety -Werror`).  Off clang
// every macro expands to nothing, so gcc builds are byte-identical to before.
//
// `Mutex` / `MutexLock` are annotated wrappers over std::mutex for state that
// is genuinely lock-guarded (the WallProfiler tree registry, which every
// profiled thread registers into).  Use them instead of a raw std::mutex
// anywhere data crosses threads: a raw mutex is invisible to the analysis.

#include <mutex>

// Attribute plumbing.  The thread-safety attributes are a clang extension;
// __has_attribute keeps the header honest if a future clang renames one.
#if defined(__clang__) && defined(__has_attribute)
#define LIQUID_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LIQUID_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a class to be a capability (lockable) type.  The string names the
/// capability kind in diagnostics ("mutex").
#define LIQUID_CAPABILITY(x) LIQUID_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define LIQUID_SCOPED_CAPABILITY LIQUID_THREAD_ANNOTATION(scoped_lockable)

/// Data member: may only be read or written while holding `x`.
#define LIQUID_GUARDED_BY(x) LIQUID_THREAD_ANNOTATION(guarded_by(x))

/// Function: acquires the capabilities; caller must NOT already hold them.
#define LIQUID_ACQUIRE(...) \
  LIQUID_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function: releases the capabilities; caller must hold them on entry.
#define LIQUID_RELEASE(...) \
  LIQUID_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function: caller must NOT hold the capabilities (deadlock guard for
/// functions that acquire them internally).
#define LIQUID_EXCLUDES(...) LIQUID_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

namespace liquid::util {

/// Annotated mutual-exclusion capability over std::mutex; hold it through
/// MutexLock.
class LIQUID_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LIQUID_ACQUIRE() { mu_.lock(); }
  void Unlock() LIQUID_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII scoped hold of a Mutex (std::lock_guard with annotations).
class LIQUID_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LIQUID_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LIQUID_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace liquid::util
