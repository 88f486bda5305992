#ifndef SITSTATS_COMMON_SYNC_H_
#define SITSTATS_COMMON_SYNC_H_

// Annotated synchronization primitives — the only place in the tree
// allowed to touch <mutex>/<shared_mutex>/<condition_variable> directly
// (enforced by tools/sitstats_lint, rule `raw-sync`).
//
// Every type here carries clang thread-safety-analysis attributes, so a
// clang build with `-Wthread-safety -Werror=thread-safety` (CMake option
// SITSTATS_THREAD_SAFETY, CI job `thread-safety`, locally
// tools/run_thread_safety.sh) proves at compile time that:
//
//   * every field declared GUARDED_BY(mu) is only touched with mu held,
//   * every helper declared REQUIRES(mu) is only called with mu held,
//   * scoped guards release exactly what they acquired.
//
// Under non-clang compilers (the container builds with GCC) the macros
// expand to nothing and the types are zero-cost wrappers over the
// standard primitives, so behavior and TSan coverage are identical.
//
// The capability map — which lock guards which state in each subsystem,
// and the allowed acquisition order — lives in DESIGN.md, section
// "Concurrency contract".

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SITSTATS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SITSTATS_THREAD_ANNOTATION
#define SITSTATS_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define CAPABILITY(x) SITSTATS_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY SITSTATS_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) SITSTATS_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) SITSTATS_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  SITSTATS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  SITSTATS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  SITSTATS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SITSTATS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  SITSTATS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SITSTATS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  SITSTATS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SITSTATS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  SITSTATS_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  SITSTATS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  SITSTATS_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) SITSTATS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) \
  SITSTATS_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) SITSTATS_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  SITSTATS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sitstats {

// ---------------------------------------------------------------------------
// Mutex / SharedMutex
// ---------------------------------------------------------------------------

/// Exclusive mutex. Prefer the scoped MutexLock guard; the lowercase
/// BasicLockable surface exists so CondVar (and standard algorithms) can
/// drive it, and is annotated the same.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Reader/writer mutex: exclusive writers, shared readers.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// ---------------------------------------------------------------------------
// Scoped guards
// ---------------------------------------------------------------------------

/// RAII exclusive lock over Mutex. Supports early Unlock() and re-Lock()
/// (a "managed" scoped capability), which a schedule worker uses to run
/// its step with the ready list unlocked.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  void Lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// RAII exclusive lock over SharedMutex (writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock over SharedMutex (reader side).
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// Condition variable bound to Mutex. Waits take the Mutex itself (not
/// the guard) so the REQUIRES contract names the capability the analysis
/// tracks; write wait loops as
///
///   MutexLock lock(mu_);
///   while (!predicate) cv_.Wait(mu_);
///
/// rather than the std predicate-lambda form — clang analyzes lambdas as
/// separate functions, so a captured predicate reading GUARDED_BY fields
/// would warn even though the lock is held.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, sleeps, and re-acquires before returning.
  /// The internal unlock/relock happens inside std::condition_variable_any
  /// (a system header, exempt from the analysis), so to the caller the
  /// capability is continuously held.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Waits until notified or `deadline`; returns false on timeout.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace sitstats

#endif  // SITSTATS_COMMON_SYNC_H_
