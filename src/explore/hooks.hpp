// Controlled-scheduling hook points (ISSUE-7 tentpole).
//
// The runtime layers (homp sync operations, simmpi blocking/matching
// decisions) call yield_point / pick_point at every place where the
// scheduler or the MPI library would make a nondeterministic choice.  The
// hooks find the run's Explorer in the calling thread's run context
// (util/run_context.hpp); with none bound they cost one thread-local load
// and a predicted branch — the same "disabled gate" discipline as obs
// telemetry — so production runs pay effectively nothing.  With an Explorer
// bound, every hook consults the active Strategy, records the resulting
// Decision into the run's Schedule, and folds the hook hit into an order
// signature used for interleaving-coverage accounting.  Each run binds its
// own Explorer, so concurrent runs explore independently.
//
// Threads advertise their position via a lane id (homp thread slot within
// the rank) and a parallel-region depth, both thread-local; homp maintains
// them around parallel regions.  Decision keys are
// (kind, rank, lane, site, per-key occurrence) — stable across runs for a
// fixed control flow, which is what makes the log replayable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/explore/schedule.hpp"
#include "src/explore/strategy.hpp"
#include "src/util/run_context.hpp"

namespace home::explore {

/// The per-run controller: owns the strategy, the decision log and the
/// occurrence counters.  One Explorer instruments one run: the run's
/// context (util::RunContext::explorer) makes it visible to the hooks on
/// that run's threads.
class Explorer {
 public:
  explicit Explorer(std::unique_ptr<Strategy> strategy);
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Consult the strategy at a yield point and sleep for the delay it
  /// injects (called with no runtime locks held).
  void yield(HookKind kind, int rank, const char* site);

  /// Consult the strategy at a pick point; returns the winning index in
  /// [0, n_eligible).  Never sleeps (safe under matching-engine locks).
  std::size_t pick(HookKind kind, int rank, const char* site,
                   std::size_t n_eligible);

  /// The decision log recorded so far (copy; safe while running).
  Schedule schedule() const;

  /// Order-sensitive hash over every hook hit in global order — two runs
  /// that interleaved sync points differently get different signatures with
  /// high probability (coverage accounting, not replay).
  std::uint64_t order_signature() const;

  std::uint64_t hook_hits() const { return hits_.load(std::memory_order_relaxed); }

  const Strategy& strategy() const { return *strategy_; }

 private:
  std::uint64_t next_occurrence(const std::string& key);
  void fold_signature(HookKind kind, int rank, int lane, const char* site);
  void record(Decision d);

  std::unique_ptr<Strategy> strategy_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::uint64_t> occurrences_;
  Schedule schedule_;
  std::uint64_t order_hash_ = 0xcbf29ce484222325ULL;
  std::atomic<std::uint64_t> hits_{0};
};

namespace internal {
/// Thread lane (homp thread slot) and parallel-region depth for the calling
/// thread; maintained by the homp runtime.
int thread_lane();
int set_thread_lane(int lane);  ///< returns the previous lane.
void enter_parallel();
void exit_parallel();
bool in_parallel();
}  // namespace internal

/// True iff the calling thread's run has an Explorer.  Call sites whose
/// context (rank, site) is non-trivial to compute should guard on this first.
inline bool active() { return util::run_context().explorer != nullptr; }

/// Yield hook: possibly delays the calling thread per the active strategy.
/// No-op (one load + branch) when exploration is disabled.
inline void yield_point(HookKind kind, int rank, const char* site) {
  Explorer* e = util::run_context().explorer;
  if (e != nullptr) e->yield(kind, rank, site);
}

/// Pick hook: chooses among n eligible alternatives.  Returns 0 (the
/// runtime's default, MPI arrival/post order) when exploration is disabled
/// or n < 2.
inline std::size_t pick_point(HookKind kind, int rank, const char* site,
                              std::size_t n_eligible) {
  if (n_eligible < 2) return 0;
  Explorer* e = util::run_context().explorer;
  return e != nullptr ? e->pick(kind, rank, site, n_eligible) : 0;
}

}  // namespace home::explore
