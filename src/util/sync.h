#ifndef LAPSE_UTIL_SYNC_H_
#define LAPSE_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace lapse {

// Annotated drop-in replacements for std::mutex / std::lock_guard /
// std::condition_variable. libstdc++ ships its synchronization types
// without capability attributes, so locking through them is invisible to
// Clang's thread-safety analysis; these wrappers add the attributes and
// nothing else -- every method is an inline forward to the std type, so
// the generated code is the same.
//
// Waiting with a predicate is written as an explicit loop at the call
// site (`while (!cond) cv.Wait(mu);`) instead of passing a lambda: the
// analysis does not propagate the held capability into lambda bodies, so
// a predicate lambda reading guarded state would (rightly) fail the
// build.
class LAPSE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LAPSE_ACQUIRE() { mu_.lock(); }
  void unlock() LAPSE_RELEASE() { mu_.unlock(); }
  bool try_lock() LAPSE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII guard (scoped capability). Supports temporary release via
// Unlock()/Lock() for spin-outside-the-lock sections.
class LAPSE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LAPSE_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() LAPSE_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() LAPSE_RELEASE() {
    held_ = false;
    mu_.unlock();
  }
  void Lock() LAPSE_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

// Condition variable that waits on a util::Mutex. Internally waits on the
// wrapped std::mutex through an adopting std::unique_lock, so the runtime
// behavior (and cost) is exactly std::condition_variable's.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Caller must hold `mu` (enforced); it is atomically released during
  // the wait and re-held on return. Spurious wakeups possible -- always
  // re-check the condition in a loop.
  void Wait(Mutex& mu) LAPSE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's guard keeps ownership
  }

  // Timed wait; returns true if the deadline passed without a notify.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      LAPSE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool timed_out =
        cv_.wait_until(lock, deadline) == std::cv_status::timeout;
    lock.release();
    return timed_out;
  }

  // Timed wait; returns true if `rel_time` elapsed without a notify.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu,
               const std::chrono::duration<Rep, Period>& rel_time)
      LAPSE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool timed_out =
        cv_.wait_for(lock, rel_time) == std::cv_status::timeout;
    lock.release();
    return timed_out;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lapse

#endif  // LAPSE_UTIL_SYNC_H_
