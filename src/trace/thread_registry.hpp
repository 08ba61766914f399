// Registry assigning dense small ids to every analysed thread of a run (each
// Session owns one).
//
// simmpi rank-threads and homp worker threads both register here; the
// vector-clock machinery indexes clocks by these dense Tids.  Each thread also
// carries the rank it belongs to (the "MPI process" in the rank-as-thread
// substrate) and whether it is that rank's master thread — the thread-safety
// predicates for MPI_THREAD_FUNNELED and MPI_Finalize need the latter.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/trace/event.hpp"

namespace home::trace {

struct ThreadInfo {
  Tid tid = kNoTid;
  Tid parent = kNoTid;
  int rank = kNoRank;
  bool is_rank_main = false;  ///< master thread of its MPI "process".
};

class ThreadRegistry {
 public:
  ThreadRegistry();

  /// Register the calling thread (a new tid each call).
  Tid register_current_thread(Tid parent, int rank, bool is_rank_main);

  /// Allocate a tid for a thread that has not started yet (so the parent can
  /// emit the ThreadFork event before the child runs); the child later calls
  /// bind_current_thread(tid).
  Tid register_thread(Tid parent, int rank, bool is_rank_main);

  /// Bind a pre-registered tid to the calling thread.
  void bind_current_thread(Tid tid);

  /// Tid of the calling thread, or kNoTid if it never registered.
  Tid current_tid() const;

  /// Rank the calling thread belongs to (kNoRank if unregistered).
  int current_rank() const;

  bool current_is_rank_main() const;

  ThreadInfo info(Tid tid) const;
  int thread_count() const;

  /// Drop all registrations (between independent tool sessions/tests).
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<ThreadInfo> threads_;
  /// Unique per registry and per reset(); keys the threads' bindings.
  std::atomic<std::uint64_t> id_;
};

}  // namespace home::trace
