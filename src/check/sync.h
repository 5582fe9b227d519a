// Instrumented synchronization primitives and annotation hooks (p2gcheck).
//
// p2g::sync::Mutex / SharedMutex / CondVar / Thread are drop-in stand-ins
// for their std counterparts. In a normal build they compile to direct
// passthroughs: the only added cost per operation is one thread-local load
// and a predictable branch (bench_check_overhead guards that this stays
// unmeasurable). When a check::CheckSession is active they report every
// operation to the session's EventSink, which
//
//   - feeds a FastTrack-style vector-clock happens-before engine that
//     detects data races (P2G-C001) and lock-order cycles (P2G-C002), and
//   - in schedule-exploration mode *virtualizes* the primitives entirely:
//     the session's seeded scheduler serializes the participant threads and
//     decides every interleaving, so no real lock is ever taken and any
//     failing schedule replays bit-exactly from its seed.
//
// The annotation API (check::read / write / acquire / release / fence /
// racy_read) lets lock-free code describe its intended happens-before
// edges: FieldStorage's published-age commits and the FlightRecorder rings
// use it so the checker can verify their publication protocols instead of
// flagging them as races.
//
// Participation model: a thread reports events only when it is registered
// with the active session (explorer-spawned threads, sync::Thread children,
// or lazily captured threads in recording mode). Everything else — and
// everything when no session exists — takes the passthrough path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <source_location>
#include <thread>
#include <utility>

namespace p2g::check {

/// Source anchor of an instrumented memory access (annotation call site).
struct Site {
  const char* label = "";
  const char* file = "";
  uint32_t line = 0;

  bool valid() const { return line != 0 || label[0] != '\0'; }
};

enum class LockMode : uint8_t { kExclusive, kShared };

/// Session-side receiver of instrumented operations. Implemented by
/// check::CheckSession (src/check/session.h); the primitives below only
/// ever talk to this interface, so the header stays dependency-free and
/// linkable from every layer.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// True in schedule-exploration mode: primitives are fully virtualized
  /// and the caller must not touch the real lock/cv at all.
  virtual bool virtualized() const = 0;

  // --- native-schedule recording (virtualized() == false) -----------------
  virtual void rec_acquired(void* lock, LockMode mode, const char* name) = 0;
  virtual void rec_released(void* lock, LockMode mode) = 0;
  virtual void rec_notify(void* cv, bool all) = 0;

  // --- virtualized operations (virtualized() == true) ---------------------
  virtual void v_lock(void* lock, LockMode mode, const char* name) = 0;
  virtual bool v_try_lock(void* lock, LockMode mode, const char* name) = 0;
  virtual void v_unlock(void* lock, LockMode mode) = 0;
  /// Blocks until notified (or, with `timed`, until the scheduler decides
  /// the timeout fires). Returns false only on timeout. Re-acquires `lock`
  /// before returning, exactly like a real condition variable.
  virtual bool v_wait(void* cv, void* lock, const char* cv_name,
                      const char* lock_name, bool timed) = 0;
  virtual void v_notify(void* cv, bool all) = 0;

  // --- thread lifecycle (sync::Thread) ------------------------------------
  /// Called in the parent; returns the child's logical id (or -1 to leave
  /// the child uninstrumented).
  virtual int thread_created(const char* name) = 0;
  virtual void thread_started(int id) = 0;  ///< in the child, before body
  virtual void thread_exited(int id) = 0;   ///< in the child, after body
  virtual void thread_joined(int id) = 0;   ///< in the parent, before join

  // --- annotations (both modes) -------------------------------------------
  virtual void mem_access(const void* addr, size_t size, bool write,
                          const Site& site) = 0;
  /// Forget all access history overlapping [addr, addr+size): call when
  /// memory is freed or recycled so stale epochs cannot produce false
  /// races (the moral equivalent of TSan's annotate-new-memory).
  virtual void mem_reset(const void* addr, size_t size) = 0;
  virtual void hb_acquire(const void* token) = 0;
  virtual void hb_release(const void* token) = 0;
  virtual void hb_fence() = 0;
  /// Pure scheduling point: no happens-before effect (racy reads, yields).
  virtual void yield_point() = 0;

  /// Recording-mode lazy capture of a previously unseen thread; returns
  /// its logical id (or -1 to keep it uninstrumented).
  virtual int register_thread() = 0;
};

// Process-wide session state. `g_generation` is 0 until the first session
// ever installs, so the inactive fast path is one relaxed load plus a
// predictable branch. A thread's registration (t_tid) is valid only for
// the generation it registered under, which keeps logical ids from leaking
// across sessions.
inline std::atomic<EventSink*> g_sink{nullptr};
inline std::atomic<uint32_t> g_generation{0};
/// Recording-mode sessions set this to capture every thread that touches
/// an instrumented primitive (virtualized sessions leave it off: only
/// explicitly spawned participants may be scheduled).
inline std::atomic<bool> g_capture_all{false};

inline thread_local uint32_t t_gen = 0;
inline thread_local int t_tid = -1;
inline thread_local int t_suppress = 0;

/// Registers the calling thread under the installed sink (used by session
/// internals and sync::Thread); -1 id marks "seen but not participating".
inline void bind_thread(uint32_t gen, int tid) {
  t_gen = gen;
  t_tid = tid;
}

/// The sink the calling thread must report to, or nullptr on the fast
/// (inactive / non-participant) path.
inline EventSink* active() {
  const uint32_t gen = g_generation.load(std::memory_order_relaxed);
  if (gen == 0) return nullptr;  // no session ever existed
  if (t_suppress != 0) return nullptr;
  if (t_gen == gen) {
    if (t_tid < 0) return nullptr;  // seen before, not a participant
    return g_sink.load(std::memory_order_acquire);
  }
  // First event under this generation: lazily capture the thread when a
  // recording session asked for it, otherwise mark it a bystander.
  EventSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return nullptr;
  if (!g_capture_all.load(std::memory_order_relaxed)) {
    bind_thread(gen, -1);
    return nullptr;
  }
  bind_thread(gen, sink->register_thread());
  return t_tid >= 0 ? sink : nullptr;
}

/// RAII reentrancy guard: session internals run user-visible code (report
/// rendering, callbacks) without re-entering the sink.
class SuppressGuard {
 public:
  SuppressGuard() { ++t_suppress; }
  ~SuppressGuard() { --t_suppress; }
  SuppressGuard(const SuppressGuard&) = delete;
  SuppressGuard& operator=(const SuppressGuard&) = delete;
};

inline Site make_site(const char* label, const std::source_location& loc) {
  return Site{label, loc.file_name(), loc.line()};
}

// --- annotation API ---------------------------------------------------------

/// Declares a plain (unsynchronized) read of [addr, addr+size). The checker
/// reports a P2G-C001 race when it is concurrent with a write.
inline void read_range(
    const void* addr, size_t size, const char* label = "",
    const std::source_location loc = std::source_location::current()) {
  if (EventSink* sink = active()) {
    sink->mem_access(addr, size, false, make_site(label, loc));
  }
}

/// Declares a plain write of [addr, addr+size).
inline void write_range(
    const void* addr, size_t size, const char* label = "",
    const std::source_location loc = std::source_location::current()) {
  if (EventSink* sink = active()) {
    sink->mem_access(addr, size, true, make_site(label, loc));
  }
}

/// Typed convenience wrappers.
template <typename T>
void read(const T& object, const char* label = "",
          const std::source_location loc = std::source_location::current()) {
  read_range(&object, sizeof(T), label, loc);
}

template <typename T>
void write(const T& object, const char* label = "",
           const std::source_location loc = std::source_location::current()) {
  write_range(&object, sizeof(T), label, loc);
}

/// Acquire edge from the last release() on the same token (model for
/// acquire-loads of published pointers/indices).
inline void acquire(const void* token) {
  if (EventSink* sink = active()) sink->hb_acquire(token);
}

/// Release edge: publishes everything the calling thread did so far to
/// subsequent acquire()s of the same token (model for release-stores).
inline void release(const void* token) {
  if (EventSink* sink = active()) sink->hb_release(token);
}

/// Full fence: orders against every other fence() (seq-cst model).
inline void fence() {
  if (EventSink* sink = active()) sink->hb_fence();
}

/// Declares an *intentionally* racy read: a scheduling point with no
/// happens-before or race-checking effect (postmortem snapshots and other
/// read-torn-data-on-purpose paths).
inline void racy_read(const void* addr, size_t size) {
  (void)addr;
  (void)size;
  if (EventSink* sink = active()) sink->yield_point();
}

/// Forgets access history of recycled memory (buffer reallocation, age
/// release): stale epochs must not race against the next tenant.
inline void reset_range(const void* addr, size_t size) {
  if (EventSink* sink = active()) sink->mem_reset(addr, size);
}

}  // namespace p2g::check

namespace p2g::sync {

using check::EventSink;
using check::LockMode;

/// std::mutex stand-in. The optional name labels the lock in lock-order
/// cycle reports ("BlockingQueue.mutex -> ReadyQueue.mutex -> ...").
class Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_lock(this, LockMode::kExclusive, name_);
        return;
      }
      impl_.lock();
      sink->rec_acquired(this, LockMode::kExclusive, name_);
      return;
    }
    impl_.lock();
  }

  bool try_lock() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        return sink->v_try_lock(this, LockMode::kExclusive, name_);
      }
      const bool ok = impl_.try_lock();
      if (ok) sink->rec_acquired(this, LockMode::kExclusive, name_);
      return ok;
    }
    return impl_.try_lock();
  }

  void unlock() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_unlock(this, LockMode::kExclusive);
        return;
      }
      sink->rec_released(this, LockMode::kExclusive);
      impl_.unlock();
      return;
    }
    impl_.unlock();
  }

  std::mutex& native() { return impl_; }
  const char* name() const { return name_; }

 private:
  std::mutex impl_;
  const char* name_ = "mutex";
};

/// std::shared_mutex stand-in (works with std::shared_lock/unique_lock).
class SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name) : name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_lock(this, LockMode::kExclusive, name_);
        return;
      }
      impl_.lock();
      sink->rec_acquired(this, LockMode::kExclusive, name_);
      return;
    }
    impl_.lock();
  }

  bool try_lock() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        return sink->v_try_lock(this, LockMode::kExclusive, name_);
      }
      const bool ok = impl_.try_lock();
      if (ok) sink->rec_acquired(this, LockMode::kExclusive, name_);
      return ok;
    }
    return impl_.try_lock();
  }

  void unlock() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_unlock(this, LockMode::kExclusive);
        return;
      }
      sink->rec_released(this, LockMode::kExclusive);
      impl_.unlock();
      return;
    }
    impl_.unlock();
  }

  void lock_shared() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_lock(this, LockMode::kShared, name_);
        return;
      }
      impl_.lock_shared();
      sink->rec_acquired(this, LockMode::kShared, name_);
      return;
    }
    impl_.lock_shared();
  }

  bool try_lock_shared() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        return sink->v_try_lock(this, LockMode::kShared, name_);
      }
      const bool ok = impl_.try_lock_shared();
      if (ok) sink->rec_acquired(this, LockMode::kShared, name_);
      return ok;
    }
    return impl_.try_lock_shared();
  }

  void unlock_shared() {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_unlock(this, LockMode::kShared);
        return;
      }
      sink->rec_released(this, LockMode::kShared);
      impl_.unlock_shared();
      return;
    }
    impl_.unlock_shared();
  }

  const char* name() const { return name_; }

 private:
  std::shared_mutex impl_;
  const char* name_ = "shared_mutex";
};

/// std::condition_variable stand-in, bound to sync::Mutex. In a normal
/// build wait() adopts the Mutex's native std::mutex, so there is no
/// condition_variable_any-style extra lock on the passthrough path.
class CondVar {
 public:
  CondVar() = default;
  explicit CondVar(const char* name) : name_(name) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

  void wait(std::unique_lock<Mutex>& lock) {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_wait(this, lock.mutex(), name_, lock.mutex()->name(), false);
        return;
      }
      sink->rec_released(lock.mutex(), LockMode::kExclusive);
      native_wait(lock);
      sink->rec_acquired(lock.mutex(), LockMode::kExclusive,
                         lock.mutex()->name());
      return;
    }
    native_wait(lock);
  }

  template <typename Pred>
  void wait(std::unique_lock<Mutex>& lock, Pred pred) {
    while (!pred()) wait(lock);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      std::unique_lock<Mutex>& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        // Virtual time: the scheduler fires the timeout when no untimed
        // thread can run (see CheckSession), so the deadline value itself
        // is irrelevant to the model.
        return sink->v_wait(this, lock.mutex(), name_, lock.mutex()->name(),
                            true)
                   ? std::cv_status::no_timeout
                   : std::cv_status::timeout;
      }
      sink->rec_released(lock.mutex(), LockMode::kExclusive);
      const std::cv_status status = native_wait_until(lock, deadline);
      sink->rec_acquired(lock.mutex(), LockMode::kExclusive,
                         lock.mutex()->name());
      return status;
    }
    return native_wait_until(lock, deadline);
  }

  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(std::unique_lock<Mutex>& lock,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) {
    while (!pred()) {
      if (wait_until(lock, deadline) == std::cv_status::timeout) {
        return pred();
      }
    }
    return true;
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(std::unique_lock<Mutex>& lock,
                          const std::chrono::duration<Rep, Period>& rel) {
    return wait_until(lock, std::chrono::steady_clock::now() + rel);
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(std::unique_lock<Mutex>& lock,
                const std::chrono::duration<Rep, Period>& rel, Pred pred) {
    return wait_until(lock, std::chrono::steady_clock::now() + rel,
                      std::move(pred));
  }

  const char* name() const { return name_; }

 private:
  void notify(bool all) {
    if (EventSink* sink = check::active()) {
      if (sink->virtualized()) {
        sink->v_notify(this, all);
        return;
      }
      sink->rec_notify(this, all);
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  void native_wait(std::unique_lock<Mutex>& lock) {
    std::unique_lock<std::mutex> native(lock.mutex()->native(),
                                        std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status native_wait_until(
      std::unique_lock<Mutex>& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> native(lock.mutex()->native(),
                                        std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  std::condition_variable cv_;
  const char* name_ = "condvar";
};

/// std::thread stand-in whose children join the active session: a library
/// that owns an internal service thread (ReliableChannel's retransmitter)
/// stays explorable because its thread participates in the schedule
/// instead of free-running outside it. Passthrough when no session is
/// active or the creator is not a participant.
class Thread {
 public:
  Thread() = default;

  template <typename Fn>
  Thread(const char* name, Fn&& fn) {
    EventSink* sink = check::active();
    const int child = sink != nullptr ? sink->thread_created(name) : -1;
    if (child < 0) {
      impl_ = std::thread(std::forward<Fn>(fn));
      return;
    }
    sink_ = sink;
    child_ = child;
    const uint32_t gen = check::g_generation.load(std::memory_order_acquire);
    impl_ = std::thread(
        [gen, child, sink, fn = std::forward<Fn>(fn)]() mutable {
          check::bind_thread(gen, child);
          if (sink->virtualized()) {
            // A virtualized run that aborts (deadlock, step budget) unwinds
            // its participants with an internal exception; swallow it here
            // so the OS thread exits cleanly and stays joinable.
            try {
              sink->thread_started(child);
              fn();
            } catch (...) {
            }
          } else {
            sink->thread_started(child);
            fn();
          }
          sink->thread_exited(child);
        });
  }

  Thread(Thread&&) = default;
  Thread& operator=(Thread&&) = default;

  bool joinable() const { return impl_.joinable(); }

  void join() {
    EventSink* sink = check::active();
    const bool participates = child_ >= 0 && sink == sink_;
    // Virtualized: tell the session first, so the child gets scheduled to
    // completion instead of deadlocking the token against a real join.
    // Recording: tell it after, so the join happens-before edge covers
    // everything the child did.
    if (participates && sink_->virtualized()) sink_->thread_joined(child_);
    impl_.join();
    if (participates && !sink_->virtualized()) sink_->thread_joined(child_);
  }

 private:
  std::thread impl_;
  EventSink* sink_ = nullptr;
  int child_ = -1;
};

}  // namespace p2g::sync
