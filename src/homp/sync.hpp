// Synchronization directives: named critical sections and explicit locks,
// with lockset bookkeeping for the dynamic analysis.
//
// Every acquire/release updates the calling thread's held-lock snapshot and,
// when instrumentation is installed, emits LockAcquire/LockRelease events.
// The snapshot is what HOME's MPI wrappers attach to monitored-variable
// writes — the input to the Eraser lockset analysis.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/trace/event.hpp"

namespace home::homp {

/// An omp_lock_t-style explicit lock with a process-unique id.
class Lock {
 public:
  Lock();
  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

  void lock();
  void unlock();
  bool try_lock();

  trace::ObjId id() const { return id_; }

 private:
  std::mutex mu_;
  trace::ObjId id_;
};

/// RAII guard for Lock.
class LockGuard {
 public:
  explicit LockGuard(Lock& lock) : lock_(lock) { lock_.lock(); }
  ~LockGuard() { lock_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Lock& lock_;
};

/// #pragma omp critical(name): one lock per name per rank ("" = the unnamed
/// critical, one per process, like OpenMP).
void critical(const std::string& name, const std::function<void()>& body);

/// The lock of a named critical section (tests & static analysis mapping).
Lock& critical_lock(const std::string& name);

/// Sorted snapshot of the locks held by the calling thread.
std::vector<trace::ObjId> current_locks();

namespace internal {
/// Lockset maintenance used by Lock/critical (exposed for the baselines).
void note_acquired(trace::ObjId lock_id);
void note_released(trace::ObjId lock_id);
}  // namespace internal

}  // namespace home::homp
