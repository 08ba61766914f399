// The analysis fan-outs under allocation failure on the pool's threads.
//
// The HB replay's jobs wait on each other at latches, and the detector
// groups accesses and sweeps variables on util::run_jobs.  A job that
// throws must still count down every latch it owes, so a std::bad_alloc on
// a pooled thread comes back to the caller as an exception instead of
// stalling the analysis.  This binary replaces the global operator new:
// while a PooledAllocFailure is armed, the n-th allocation made on a pooled
// thread and every later one there throw.  Each test runs under a ctest
// TIMEOUT, so a stall fails it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "tests/oracle/fixtures.hpp"

namespace {

std::atomic<bool> g_armed{false};
/// Allocations pooled threads may still make while armed.
std::atomic<long> g_pooled_left{0};

}  // namespace

void* operator new(std::size_t n) {
  if (home::util::current_job_id() != 0 &&
      g_armed.load(std::memory_order_relaxed) &&
      g_pooled_left.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Not inlined: GCC would pair a new-expression's pointer with the free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

// Under AddressSanitizer: new and delete are malloc and free here, so its
// check that a new is paired with a delete does not apply.
extern "C" const char* __asan_default_options() {
  return "alloc_dealloc_mismatch=0";
}

namespace home {
namespace {

using detect::HappensBeforeAnalysis;
using detect::HbIndex;
using trace::Event;
using trace::EventKind;

/// Arms the failure for its scope: pooled threads may make `n` more
/// allocations, and every one after those throws.
class PooledAllocFailure {
 public:
  explicit PooledAllocFailure(long n) : n_(n) {
    g_pooled_left.store(n);
    g_armed.store(true);
  }
  ~PooledAllocFailure() { g_armed.store(false); }
  PooledAllocFailure(const PooledAllocFailure&) = delete;
  PooledAllocFailure& operator=(const PooledAllocFailure&) = delete;

  /// Allocations pooled threads made so far in this scope.
  long made() const { return n_ - g_pooled_left.load(); }

 private:
  long n_;
};

constexpr int kRanks = 4;
constexpr int kThreads = 4;

/// A run of 4 ranks of 4 threads, above the parallel threshold in events
/// and in accesses: each rank's main thread forks its team; the threads
/// write and read rank-local variables, meet at team barriers, and send
/// messages, each once, that a thread of the next rank receives.  It
/// replays in 4 partitions.
std::vector<Event> ranked_events() {
  const auto tid_of = [](int rank, int local) {
    return static_cast<trace::Tid>(rank * kThreads + local);
  };
  util::Rng rng(11);
  oracle::TraceBuilder tb;
  for (int r = 0; r < kRanks; ++r) {
    for (int l = 1; l < kThreads; ++l) {
      tb.event(tid_of(r, 0), EventKind::kThreadFork,
               static_cast<trace::ObjId>(tid_of(r, l)));
    }
  }
  trace::ObjId next_id = 50'000;
  for (int step = 0; step < 8000; ++step) {
    const int r = rng.next_int(0, kRanks - 1);
    const trace::Tid t = tid_of(r, rng.next_int(0, kThreads - 1));
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 85) {
      tb.event(t, rng.next_bool(0.5) ? EventKind::kMemWrite : EventKind::kMemRead,
               1000 + 10 * static_cast<trace::ObjId>(r) + rng.next_below(4));
    } else if (roll < 93) {
      std::vector<trace::Tid> team;
      for (int l = 0; l < kThreads; ++l) team.push_back(tid_of(r, l));
      tb.barrier(team, next_id++);
    } else {
      tb.event(t, EventKind::kMsgSend, next_id);
      tb.event(tid_of((r + 1) % kRanks, rng.next_int(0, kThreads - 1)),
               EventKind::kMsgRecv, next_id++);
    }
  }
  for (int r = 0; r < kRanks; ++r) {
    for (int l = 1; l < kThreads; ++l) {
      tb.event(tid_of(r, 0), EventKind::kThreadJoin,
               static_cast<trace::ObjId>(tid_of(r, l)));
    }
  }
  return tb.events();
}

constexpr long kRoom = 1L << 40;

/// Allocations pooled threads make in one call of `fn`.
template <class Fn>
long pooled_allocations(Fn fn) {
  const PooledAllocFailure count(kRoom);
  fn();
  return count.made();
}

/// Runs `attempt`, an analysis that returns whether its result is right,
/// with pooled allocations failing from the n-th on.  `phases` are the
/// allocation counts at which the run's later fan-outs start (the first
/// starts at 0); n doubles away from each start up to the next one or the
/// run's last allocation, so every phase sees a failure early and late.
/// Every run must throw std::bad_alloc or be right, and a run with room to
/// spare must be right.
template <class Attempt>
void fail_each_phase(Attempt attempt, std::vector<long> phases = {}) {
  long total = 0;
  {
    const PooledAllocFailure count(kRoom);
    ASSERT_TRUE(attempt());
    total = count.made();
  }
  ASSERT_GT(total, 0);
  phases.insert(phases.begin(), 0);
  phases.push_back(total);
  std::vector<long> budgets;
  for (std::size_t p = 0; p + 1 < phases.size(); ++p) {
    for (long k = 1; phases[p] + k - 1 < phases[p + 1]; k *= 2) {
      budgets.push_back(phases[p] + k - 1);
    }
  }
  int failed = 0;
  for (const long n : budgets) {
    SCOPED_TRACE("pooled allocation " + std::to_string(n) + " of " +
                 std::to_string(total) + " fails");
    try {
      const PooledAllocFailure fail(n);
      if (!attempt()) return;
    } catch (const std::bad_alloc&) {
      ++failed;
    }
  }
  EXPECT_GT(failed, 0);
}

TEST(AllocFault, AnHbReplayThatCannotAllocateOnAPooledThreadThrows) {
  const std::vector<Event> events = ranked_events();
  ASSERT_GE(events.size(), util::kParallelAnalysisThreshold);
  const HbIndex one = HappensBeforeAnalysis().run_partitioned(events, 1);
  // Unarmed first, so the pool's threads exist and park again without
  // allocating once armed.
  HappensBeforeAnalysis().run_partitioned(events, 4);
  fail_each_phase([&] {
    const HbIndex hb = HappensBeforeAnalysis().run_partitioned(events, 4);
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (trace::Tid t = 0; t < kRanks * kThreads; ++t) {
        if (hb.stamp_get(i, t) != one.stamp_get(i, t)) {
          ADD_FAILURE() << "event " << i << " tid " << t;
          return false;
        }
      }
    }
    return true;
  });
}

TEST(AllocFault, ADetectorThatCannotAllocateOnAPooledThreadThrows) {
  // The replay, the access grouping and the sweeps all fan out.
  const std::vector<Event> events = ranked_events();
  detect::RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;
  const detect::ConcurrencyReport serial = detect::RaceDetector(cfg).analyze(events);
  ASSERT_GE(serial.total_pairs(), 1u);
  cfg.analysis_threads = 4;
  detect::RaceDetector(cfg).analyze(events);  // the pool's threads, unarmed.
  // The replay's allocations come first; the grouping's and the sweeps'
  // follow.
  const long replay = pooled_allocations(
      [&events] { HappensBeforeAnalysis().run(events, 4); });
  fail_each_phase([&] {
    const detect::ConcurrencyReport report = detect::RaceDetector(cfg).analyze(events);
    EXPECT_EQ(oracle::engine_verdicts(report), oracle::engine_verdicts(serial));
    EXPECT_EQ(oracle::report_pairs(report), oracle::report_pairs(serial));
    return !testing::Test::HasFailure();
  }, {replay});
}

}  // namespace
}  // namespace home
