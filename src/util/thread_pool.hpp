// The process's one pool of parked threads.  Every thread the library starts
// (rank threads, homp team threads, sweep workers and watchdogs, the HB
// replay's partitions and the detector's sweep workers, the injector's
// redelivery worker, the online analyzer's consumer)
// is a job on it: a job goes to a parked thread, or to a new thread when none
// is parked, so the pool never queues work and a job may start and join
// others.  A finished thread is parked again before its joiner wakes, so
// back-to-back runs and parallel regions reuse the same threads, as an MPI
// process and an OpenMP runtime keep theirs; the pool never holds more
// threads than the process ran at once.  There is no cap and no idle timeout.
//
// A job starts with the thread state a fresh thread has for the state the
// pool owns (the thread name is cleared when a job ends); thread-local state
// elsewhere is restored by the job that set it, or keyed by an id of its
// owner (DESIGN.md §11 lists every thread_local).  An exception that escapes
// a job ends the process, as it does from a std::thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace home::util {

namespace internal {
struct PoolWorker;
inline thread_local std::uint64_t tls_job_id = 0;
}  // namespace internal

/// One job on a pooled thread, used like std::thread: join() waits for the
/// job (its captures already destroyed), and destroying or overwriting a
/// joinable handle terminates.
class PooledThread {
 public:
  PooledThread() = default;
  explicit PooledThread(std::function<void()> job);
  ~PooledThread();
  PooledThread(PooledThread&& other) noexcept;
  PooledThread& operator=(PooledThread&& other) noexcept;
  PooledThread(const PooledThread&) = delete;
  PooledThread& operator=(const PooledThread&) = delete;

  bool joinable() const { return worker_ != nullptr; }
  void join();

 private:
  internal::PoolWorker* worker_ = nullptr;
  std::uint64_t ticket_ = 0;  ///< this job's number on its worker.
};

/// OS threads the pool holds, running or parked.
std::size_t pooled_thread_count();

/// Changes each time the calling thread starts a pooled job; 0 on a thread
/// the pool did not start.  Thread-local state that must not outlive a job
/// keys itself by this.
inline std::uint64_t current_job_id() { return internal::tls_job_id; }

}  // namespace home::util
