// Cooperative run abort (ISSUE-10 sweep robustness).
//
// A hung run used to be bounded only by block_timeout_ms per blocking call —
// a watchdog that decides a schedule is dead had no way to tear it down any
// faster.  Universe::request_abort() raises that universe's AbortSignal;
// every blocking simmpi wait goes through abortable_wait(), which slices its
// condition wait into kAbortPollMs chunks and throws AbortError as soon as
// the signal of the calling thread's run (util::RunContext::abort) is up.
// Universe::run catches the error per rank (like TimeoutError), so an abort
// collapses the whole run within one poll interval instead of one timeout.
//
// The signal is per run: aborting one universe leaves every other running
// universe alone, and a fresh universe starts with a clear signal.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>

#include "src/util/run_context.hpp"

namespace home::simmpi {

/// Thrown out of a blocking MPI call when the run is being torn down by a
/// watchdog.  Distinct from TimeoutError so callers can tell "this call
/// waited too long" from "something else decided the whole run is dead".
class AbortError : public std::runtime_error {
 public:
  explicit AbortError(const std::string& what) : std::runtime_error(what) {}
};

/// How often a blocked call re-checks the abort signal (the abort latency).
inline constexpr int kAbortPollMs = 20;

/// One run's abort flag and the reason it was raised.  Thread-safe.
class AbortSignal {
 public:
  /// Raise the signal.  Idempotent; the first reason wins.
  void raise(const std::string& reason);
  bool raised() const { return raised_.load(std::memory_order_acquire); }
  std::string reason() const;

 private:
  std::atomic<bool> raised_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

/// Throws AbortError when the calling thread's run has been aborted.
inline void throw_if_aborted() {
  const AbortSignal* signal = util::run_context().abort;
  if (signal != nullptr && signal->raised()) {
    throw AbortError("run aborted: " + signal->reason());
  }
}

/// Abort-aware condition wait shared by every blocking simmpi site.
/// Semantics match cv.wait/wait_for(pred): returns true when pred held,
/// false on timeout (timeout_ms > 0; <= 0 waits forever).  Checks the run's
/// abort signal every kAbortPollMs and throws AbortError when it is up.
/// `lock` must hold the mutex guarding pred's state.
template <typename Pred>
bool abortable_wait(std::condition_variable& cv,
                    std::unique_lock<std::mutex>& lock, int timeout_ms,
                    Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (pred()) return true;
    throw_if_aborted();
    auto slice = std::chrono::milliseconds(kAbortPollMs);
    if (timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      if (left < slice) slice = left + std::chrono::milliseconds(1);
    }
    cv.wait_for(lock, slice);
  }
}

}  // namespace home::simmpi
