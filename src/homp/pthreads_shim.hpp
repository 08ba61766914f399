// PThreads-style backend — the paper's future-work direction of extending
// HOME beyond OpenMP ("...but also the other distributed and shared memory
// programming model, like UPC and PThreads Programming").
//
// homp::Thread wraps a pooled thread (util/thread_pool.hpp) the way
// homp::parallel wraps a team: the child registers with the session's thread
// registry, inherits the parent's simmpi rank context, and fork/join events
// are emitted so the happens-before analysis sees the same edges
// pthread_create/pthread_join imply.  A hybrid MPI + raw-threads program
// checked through this shim gets exactly the same violation detection as an
// OpenMP one.
//
// homp::Mutex is the pthread_mutex_t counterpart of homp::Lock (same lockset
// bookkeeping, separate type so call sites read naturally).
#pragma once

#include <functional>

#include "src/homp/sync.hpp"
#include "src/util/thread_pool.hpp"

namespace home::homp {

class Thread {
 public:
  /// Launch `body` on a new analysed thread. The calling thread's rank
  /// context (simmpi Process) and run context are inherited, mirroring how
  /// threads of an MPI process share its rank.
  explicit Thread(std::function<void()> body);
  ~Thread();

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  Thread(Thread&&) = default;
  Thread& operator=(Thread&&) = default;

  /// pthread_join: blocks, then emits the join edge.
  void join();
  bool joinable() const { return thread_.joinable(); }

 private:
  util::PooledThread thread_;
  trace::Tid child_tid_ = trace::kNoTid;
  bool joined_ = false;
};

/// pthread_mutex_t counterpart of homp::Lock.
using Mutex = Lock;

}  // namespace home::homp
