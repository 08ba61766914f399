#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/homp/worksharing.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/run_context.hpp"

namespace home::homp {
namespace {

/// homp used without a Universe binds its sinks on the calling thread.
util::RunContext instrumented(trace::TraceLog* log,
                              trace::ThreadRegistry* registry) {
  util::RunContext run;
  run.log = log;
  run.registry = registry;
  return run;
}

TEST(Parallel, RunsBodyOncePerThread) {
  std::atomic<int> count{0};
  parallel(4, [&] { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(Parallel, ThreadNumsAreDense) {
  std::mutex mu;
  std::set<int> nums;
  parallel(4, [&] {
    std::lock_guard<std::mutex> lock(mu);
    nums.insert(thread_num());
    EXPECT_EQ(num_threads(), 4);
    EXPECT_TRUE(in_parallel());
  });
  EXPECT_EQ(nums, (std::set<int>{0, 1, 2, 3}));
  EXPECT_FALSE(in_parallel());
  EXPECT_EQ(num_threads(), 1);
}

TEST(Parallel, CallerIsMaster) {
  std::atomic<int> master_count{0};
  const auto caller = std::this_thread::get_id();
  parallel(3, [&] {
    if (thread_num() == 0) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      master_count.fetch_add(1);
    }
  });
  EXPECT_EQ(master_count.load(), 1);
}

TEST(Parallel, BackToBackRegionsReuseTheirWorkers) {
  // An OpenMP runtime keeps its workers between regions; so does homp: a
  // finished worker is parked again before the master's join returns.
  std::mutex mu;
  std::set<std::thread::id> workers;
  for (int region = 0; region < 100; ++region) {
    parallel(4, [&] {
      if (thread_num() == 0) return;
      std::lock_guard<std::mutex> lock(mu);
      workers.insert(std::this_thread::get_id());
    });
  }
  EXPECT_GE(workers.size(), 1u);
  EXPECT_LE(workers.size(), 3u);
  EXPECT_EQ(workers.count(std::this_thread::get_id()), 0u);
}

TEST(Parallel, DefaultThreadsRespected) {
  set_default_threads(3);
  std::atomic<int> count{0};
  parallel(0, [&] { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  set_default_threads(2);
}

TEST(Parallel, NestedRegionsStack) {
  std::atomic<int> inner_total{0};
  parallel(2, [&] {
    const int outer = thread_num();
    parallel(2, [&] {
      EXPECT_EQ(num_threads(), 2);
      inner_total.fetch_add(1);
    });
    EXPECT_EQ(thread_num(), outer);  // restored after the nested region.
  });
  EXPECT_EQ(inner_total.load(), 4);
}

TEST(Parallel, ExceptionPropagates) {
  EXPECT_THROW(
      parallel(2, [] { throw std::runtime_error("inner"); }),
      std::runtime_error);
}

TEST(Barrier, AllArriveBeforeAnyLeaves) {
  std::atomic<int> arrived{0};
  parallel(4, [&] {
    arrived.fetch_add(1);
    barrier();
    EXPECT_EQ(arrived.load(), 4);
  });
}

TEST(Barrier, ReusableAcrossPhases) {
  std::atomic<int> phase1{0}, phase2{0};
  parallel(3, [&] {
    phase1.fetch_add(1);
    barrier();
    EXPECT_EQ(phase1.load(), 3);
    phase2.fetch_add(1);
    barrier();
    EXPECT_EQ(phase2.load(), 3);
  });
}

TEST(ForRange, StaticCoversEveryIterationOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel(4, [&] {
    for_range(0, 100, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForRange, DynamicCoversEveryIterationOnce) {
  std::vector<std::atomic<int>> hits(101);
  ForOpts opts;
  opts.schedule = Schedule::kDynamic;
  opts.chunk = 3;
  parallel(4, [&] {
    for_range(0, 101, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
              opts);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForRange, StaticChunkCyclic) {
  std::vector<std::atomic<int>> hits(37);
  ForOpts opts;
  opts.chunk = 4;
  parallel(3, [&] {
    for_range(0, 37, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
              opts);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForRange, SerialOutsideParallel) {
  int sum = 0;
  for_range(0, 10, [&](int i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ForRange, EmptyRange) {
  parallel(2, [&] {
    for_range(5, 5, [&](int) { FAIL() << "must not run"; });
  });
}

TEST(Sections, EachSectionRunsExactlyOnce) {
  std::atomic<int> a{0}, b{0}, c{0};
  parallel(2, [&] {
    sections({[&] { a.fetch_add(1); }, [&] { b.fetch_add(1); },
              [&] { c.fetch_add(1); }});
  });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 1);
  EXPECT_EQ(c.load(), 1);
}

TEST(Sections, MoreThreadsThanSections) {
  std::atomic<int> a{0};
  parallel(4, [&] { sections({[&] { a.fetch_add(1); }}); });
  EXPECT_EQ(a.load(), 1);
}

TEST(Single, ExactlyOneExecutes) {
  std::atomic<int> count{0};
  parallel(4, [&] { single([&] { count.fetch_add(1); }); });
  EXPECT_EQ(count.load(), 1);
}

TEST(Single, RepeatedConstructsElectIndependently) {
  std::atomic<int> first{0}, second{0};
  parallel(3, [&] {
    single([&] { first.fetch_add(1); });
    single([&] { second.fetch_add(1); });
  });
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
}

TEST(Master, OnlyThreadZeroRuns) {
  std::atomic<int> count{0};
  parallel(4, [&] {
    master([&] {
      EXPECT_EQ(thread_num(), 0);
      count.fetch_add(1);
    });
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(Critical, MutualExclusionHolds) {
  int unguarded = 0;  // modified only inside the critical section.
  parallel(4, [&] {
    for (int i = 0; i < 100; ++i) {
      critical("sum", [&] { ++unguarded; });
    }
  });
  EXPECT_EQ(unguarded, 400);
}

TEST(Critical, LocksetVisibleInsideBody) {
  parallel(2, [&] {
    EXPECT_TRUE(current_locks().empty());
    critical("zone", [&] {
      const auto locks = current_locks();
      ASSERT_EQ(locks.size(), 1u);
      EXPECT_EQ(locks[0], critical_lock("zone").id());
    });
    EXPECT_TRUE(current_locks().empty());
  });
}

TEST(Critical, NamedSectionsAreIndependentLocks) {
  EXPECT_NE(critical_lock("a").id(), critical_lock("b").id());
  EXPECT_EQ(critical_lock("a").id(), critical_lock("a").id());
}

TEST(Lock, NestedLocksetsAccumulate) {
  Lock outer, inner;
  outer.lock();
  inner.lock();
  const auto locks = current_locks();
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_TRUE(std::is_sorted(locks.begin(), locks.end()));
  inner.unlock();
  outer.unlock();
  EXPECT_TRUE(current_locks().empty());
}

TEST(Lock, TryLockReflectsState) {
  Lock lock;
  EXPECT_TRUE(lock.try_lock());
  std::thread other([&] { EXPECT_FALSE(lock.try_lock()); });
  other.join();
  lock.unlock();
}

TEST(Instrumented, ParallelEmitsForkJoinAndRegionEvents) {
  trace::TraceLog log;
  trace::ThreadRegistry registry;
  registry.register_current_thread(trace::kNoTid, 0, true);
  {
    util::ScopedRunContext bind(instrumented(&log, &registry));
    parallel(3, [&] { barrier(); });
  }

  int forks = 0, joins = 0, barriers = 0, begins = 0, ends = 0;
  for (const auto& e : log.sorted_events()) {
    switch (e.kind) {
      case trace::EventKind::kThreadFork: ++forks; break;
      case trace::EventKind::kThreadJoin: ++joins; break;
      case trace::EventKind::kBarrier: ++barriers; break;
      case trace::EventKind::kRegionBegin: ++begins; break;
      case trace::EventKind::kRegionEnd: ++ends; break;
      default: break;
    }
  }
  EXPECT_EQ(forks, 2);
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(barriers, 3);  // one arrival per team thread.
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST(Instrumented, BarrierArrivalsPrecedeReleases) {
  trace::TraceLog log;
  trace::ThreadRegistry registry;
  registry.register_current_thread(trace::kNoTid, 0, true);
  {
    util::ScopedRunContext bind(instrumented(&log, &registry));
    parallel(4, [&] {
      barrier();
      barrier();
    });
  }

  // Group barrier events by instance id; within each instance all arrivals
  // must appear before any later event of a participating thread that follows
  // the barrier. A weaker but structural check: every instance has exactly 4
  // arrivals with matching aux.
  std::map<trace::ObjId, int> arrivals;
  for (const auto& e : log.sorted_events()) {
    if (e.kind == trace::EventKind::kBarrier) {
      EXPECT_EQ(e.aux, 4u);
      arrivals[e.obj]++;
    }
  }
  EXPECT_EQ(arrivals.size(), 2u);
  for (const auto& [id, n] : arrivals) EXPECT_EQ(n, 4);
}

TEST(Instrumented, LockEventsCarryLockset) {
  trace::TraceLog log;
  trace::ThreadRegistry registry;
  registry.register_current_thread(trace::kNoTid, 0, true);
  Lock lock;
  {
    util::ScopedRunContext bind(instrumented(&log, &registry));
    lock.lock();
    lock.unlock();
  }

  auto events = log.sorted_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace::EventKind::kLockAcquire);
  ASSERT_EQ(events[0].locks_held.size(), 1u);
  EXPECT_EQ(events[0].locks_held[0], lock.id());
  EXPECT_EQ(events[1].kind, trace::EventKind::kLockRelease);
}

}  // namespace
}  // namespace home::homp
