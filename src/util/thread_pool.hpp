// The process's one pool of parked threads.  Every thread the library starts
// (rank threads, homp team threads, sweep workers and watchdogs, the WAL
// salvage's chunk workers, the HB replay's partitions, the detector's
// grouping and sweep workers, the injector's redelivery worker, the online
// analyzer's consumer) is a job on it: a job goes to a parked thread, or to a
// new thread when none is parked, so the pool never queues work and a job may
// start and join others.  A finished thread is parked again before its joiner wakes, so
// back-to-back runs and parallel regions reuse the same threads, as an MPI
// process and an OpenMP runtime keep theirs; the pool never holds more
// threads than the process ran at once.  There is no cap and no idle timeout.
//
// A job starts with the thread state a fresh thread has for the state the
// pool owns (the thread name is cleared when a job ends); thread-local state
// elsewhere is restored by the job that set it, or keyed by an id of its
// owner (DESIGN.md §11 lists every thread_local).  An exception that escapes
// a job ends the process, as it does from a std::thread; run_jobs() catches
// its jobs' exceptions and rethrows one on the caller instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace home::util {

namespace internal {
struct PoolWorker;
inline thread_local std::uint64_t tls_job_id = 0;
void run_pooled_jobs(std::size_t n,
                     const std::function<void(std::size_t)>& job);
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

/// Analysis passes over fewer events than this (a trace's events, a
/// variable sweep's accesses, a WAL file's minimal event frames) run on the
/// calling thread alone, whatever worker count is allowed: starting jobs
/// would dominate.
inline constexpr std::size_t kParallelAnalysisThreshold = 4096;

/// Runs job(0) .. job(n - 1) at once: job 0 on the calling thread, the
/// others on pooled threads, and returns when every job has ended.  An
/// exception does not end the process: every job is still joined, then the
/// exception of the lowest-numbered failed job is rethrown on the caller.
/// A pooled thread that cannot be started counts as its job's failure, and
/// the jobs after it are not started.  One job is a plain call.
template <typename Job>
void run_jobs(std::size_t n, Job&& job) {
  if (n == 1) {
    job(std::size_t{0});
  } else if (n > 1) {
    internal::run_pooled_jobs(n, std::ref(job));
  }
}

/// Changes each time the calling thread starts a pooled job; 0 on a thread
/// the pool did not start.  Thread-local state that must not outlive a job
/// keys itself by this.
inline std::uint64_t current_job_id() { return internal::tls_job_id; }

}  // namespace home::util
