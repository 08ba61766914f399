// Seeded fault-injection engine (ISSUE-10 tentpole).
//
// The runtime layers (simmpi message delivery and MPI call entry, homp lock
// acquisition, the online analyzer's consumer loop) call the *_point hooks
// below at every place a real deployment could misbehave.  The hooks find
// the run's Injector in the calling thread's run context
// (util/run_context.hpp); with none bound each hook costs one thread-local
// load and a predicted branch — the same disabled-gate discipline as
// explore:: and obs:: — so the <5% overhead budget in bench_faults holds
// trivially.  With an Injector bound, every hook draws deterministically from
// splitmix64(seed ^ context ^ salt) keyed by (kind, rank, site, per-key
// occurrence), applies the fault, and records it.  Replay mode applies the
// faults a run recorded (explore::Schedule::faults) exactly and draws
// nothing.  Each run binds its own Injector, so a faulted run never perturbs
// a run beside it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faults/fault.hpp"
#include "src/util/run_context.hpp"
#include "src/util/thread_pool.hpp"

namespace home::obs {
class Counter;
}

namespace home::faults {

/// Thrown out of an MPI call on an injected hard rank crash.  simmpi's
/// Universe::run already catches per-rank exceptions into
/// RunResult::failed_ranks, so a crash takes down one rank, not the run.
class RankCrashError : public std::runtime_error {
 public:
  RankCrashError(int rank, const std::string& site)
      : std::runtime_error("injected rank crash: rank " + std::to_string(rank) +
                           " at " + site),
        rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// The per-run fault controller.  One Injector instruments one run: the
/// run's context (util::RunContext::injector) makes it visible to the hooks
/// on that run's threads (mirroring explore::Explorer).  All hook entry
/// points are thread-safe.
class Injector {
 public:
  /// Generate mode: draw faults per `spec` from `seed`.
  Injector(const FaultSpec& spec, std::uint64_t seed);
  /// Replay mode: apply exactly the recorded `replay` decisions; no draws.
  /// `spec` and `seed` only label what this injector records.
  Injector(const FaultSpec& spec, std::uint64_t seed,
           const std::vector<FaultDecision>& replay);
  ~Injector();
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Message about to be delivered by rank `rank`.  Returns true when the
  /// injector took ownership of the delivery (kMsgDrop: `deliver` is parked
  /// and re-run by the redelivery worker after the drop window); false when
  /// the caller should deliver normally (possibly after an injected
  /// kMsgDelay sleep, which happens inside this call).
  bool on_message(int rank, const char* site, std::function<void()> deliver);

  /// MPI call entry on `rank`: may sleep (kRankStall) or throw
  /// RankCrashError (kRankCrash).
  void on_mpi_call(int rank, const char* site);

  /// Called with the homp lock/critical mutex *held*: may sleep
  /// (kLockHolderPause) to widen the holder's critical section.
  void on_lock_acquired(int rank, const char* site);

  /// Online-analyzer consumer hook: may sleep (kQueuePressure) to spike
  /// producer-side queue pressure.  Not rank-scoped (rank records as -1).
  void on_queue_consume(const char* site);

  /// Deliver every still-parked message immediately and stop the redelivery
  /// worker.  Must be called before the Universe the thunks capture is
  /// destroyed; idempotent (the destructor also calls it).
  void quiesce();

  /// The faults injected so far, in firing order (copy; safe while
  /// running).  In replay mode these are the recorded decisions applied.
  std::vector<FaultDecision> decisions() const;
  const FaultSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

  std::uint64_t injected_count() const {
    return injected_.load(std::memory_order_relaxed);
  }

  bool replay_mode() const { return replay_; }

 private:
  /// Per-(kind,rank,site) ordinal; the stable half of every decision key.
  std::uint64_t next_occurrence(FaultKind kind, int rank, const char* site);
  /// Replay lookup: microsecond value for this exact decision key, or false.
  bool replay_value(FaultKind kind, int rank, const char* site,
                    std::uint64_t occurrence, std::uint64_t* value) const;
  void record(FaultKind kind, int rank, const char* site,
              std::uint64_t occurrence, std::uint64_t value);
  /// Generate-mode decision: does (kind, ctx) fire, and with what value?
  bool decide(FaultKind kind, double p, int rank, const char* site,
              std::uint64_t occurrence, std::uint64_t* value);
  void park_redelivery(std::function<void()> deliver, std::uint64_t delay_us);
  void redelivery_loop();
  static void sleep_us(std::uint64_t us);

  const FaultSpec spec_;
  const std::uint64_t seed_;
  bool replay_ = false;
  /// Replay index: "kind|rank|site#occurrence" -> value.
  std::unordered_map<std::string, std::uint64_t> replay_index_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::uint64_t> occurrences_;
  std::vector<FaultDecision> recorded_;
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<int> crashes_{0};

  struct Parked {
    std::chrono::steady_clock::time_point due;
    std::function<void()> deliver;
  };
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::vector<Parked> parked_;
  util::PooledThread redeliverer_;
  bool worker_running_ = false;
  bool stopping_ = false;

  obs::Counter* c_injected_;
  obs::Counter* c_kind_[kFaultKindCount];
  obs::Counter* c_redelivered_;
};

/// True iff the calling thread's run has an Injector.  Hook sites whose
/// arguments are non-trivial to build (the message-delivery thunk) must guard
/// on this first so the disabled path stays one load.
inline bool active() { return util::run_context().injector != nullptr; }

/// MPI call entry hook (rank stall / rank crash).  One load when disabled.
inline void mpi_call_point(int rank, const char* site) {
  Injector* inj = util::run_context().injector;
  if (inj != nullptr) inj->on_mpi_call(rank, site);
}

/// Message delivery hook (delay / drop-with-redelivery).  Returns true when
/// the injector took over the delivery.  Callers MUST guard with active()
/// before building the thunk.
inline bool message_point(int rank, const char* site,
                          std::function<void()> deliver) {
  Injector* inj = util::run_context().injector;
  return inj != nullptr && inj->on_message(rank, site, std::move(deliver));
}

/// Lock-holder pause hook; call with the lock held.  One load when disabled.
inline void lock_holder_point(int rank, const char* site) {
  Injector* inj = util::run_context().injector;
  if (inj != nullptr) inj->on_lock_acquired(rank, site);
}

/// Online-consumer pressure hook.  One load when disabled.
inline void queue_consume_point(const char* site) {
  Injector* inj = util::run_context().injector;
  if (inj != nullptr) inj->on_queue_consume(site);
}

}  // namespace home::faults
