#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/lockset.hpp"
#include "src/detect/race_detector.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace home::detect {
namespace {

using trace::Event;
using trace::EventKind;
using util::kParallelAnalysisThreshold;

Event make_event(trace::Seq seq, trace::Tid tid, EventKind kind, trace::ObjId obj,
                 std::vector<trace::ObjId> locks = {}, std::uint64_t aux = 0) {
  Event e;
  e.seq = seq;
  e.tid = tid;
  e.kind = kind;
  e.obj = obj;
  e.aux = aux;
  e.locks_held = std::move(locks);
  return e;
}

// ---------------------------------------------------------------- VectorClock

TEST(VectorClock, DefaultIsBottom) {
  VectorClock a, b;
  EXPECT_TRUE(a.leq(b));
  EXPECT_TRUE(b.leq(a));
  EXPECT_FALSE(VectorClock::concurrent(a, b));
}

TEST(VectorClock, BumpAndGet) {
  VectorClock c;
  c.bump(2);
  EXPECT_EQ(c.get(2), 1u);
  EXPECT_EQ(c.get(0), 0u);
  EXPECT_EQ(c.get(99), 0u);  // out-of-range reads as zero.
}

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock a, b;
  a.set(0, 5);
  a.set(1, 1);
  b.set(1, 7);
  a.join(b);
  EXPECT_EQ(a.get(0), 5u);
  EXPECT_EQ(a.get(1), 7u);
}

TEST(VectorClock, ConcurrencyDetected) {
  VectorClock a, b;
  a.set(0, 1);
  b.set(1, 1);
  EXPECT_TRUE(VectorClock::concurrent(a, b));
  a.join(b);
  EXPECT_FALSE(VectorClock::concurrent(a, b));  // a now dominates b.
  EXPECT_TRUE(b.leq(a));
}

TEST(VectorClock, EqualityIgnoresTrailingZeroPadding) {
  // Clocks of different lengths are equal as functions Tid -> value when the
  // longer one only adds trailing zeros (a clock created before later
  // threads registered must compare equal to its padded twin).
  VectorClock a, b;
  a.set(0, 3);
  a.set(1, 5);
  b.set(0, 3);
  b.set(1, 5);
  b.set(4, 0);  // pads b to length 5 with trailing zeros.
  ASSERT_NE(a.size(), b.size());
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);

  // A non-zero component in the tail breaks equality in both orders.
  VectorClock c = a;
  c.set(4, 1);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(c == a);

  // Same length, one differing component.
  VectorClock d = a;
  d.set(1, 6);
  EXPECT_FALSE(a == d);

  // Empty vs all-zero padded.
  VectorClock empty, zeros;
  zeros.set(7, 0);
  EXPECT_TRUE(empty == zeros);
  EXPECT_TRUE(zeros == empty);
}

TEST(VectorClockProperty, EqualityMatchesTwoSidedLeq) {
  // The single-pass operator== must agree with the definitional
  // leq-both-ways on random clocks of uneven lengths.
  util::Rng rng(44);
  for (int trial = 0; trial < 500; ++trial) {
    VectorClock a, b;
    const auto na = static_cast<trace::Tid>(1 + rng.next_below(6));
    const auto nb = static_cast<trace::Tid>(1 + rng.next_below(6));
    for (trace::Tid t = 0; t < na; ++t) a.set(t, rng.next_below(3));
    for (trace::Tid t = 0; t < nb; ++t) b.set(t, rng.next_below(3));
    EXPECT_EQ(a == b, a.leq(b) && b.leq(a)) << a.to_string() << " vs "
                                            << b.to_string();
  }
}

TEST(VectorClockProperty, JoinIsLeastUpperBound) {
  util::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    VectorClock a, b;
    for (trace::Tid t = 0; t < 6; ++t) {
      a.set(t, rng.next_below(10));
      b.set(t, rng.next_below(10));
    }
    VectorClock j = a;
    j.join(b);
    EXPECT_TRUE(a.leq(j));
    EXPECT_TRUE(b.leq(j));
    // Minimality: any upper bound of both dominates the join.
    VectorClock ub;
    for (trace::Tid t = 0; t < 6; ++t) {
      ub.set(t, std::max(a.get(t), b.get(t)));
    }
    EXPECT_TRUE(j.leq(ub));
    EXPECT_TRUE(ub.leq(j));
  }
}

TEST(VectorClockProperty, LeqIsPartialOrder) {
  util::Rng rng(43);
  std::vector<VectorClock> clocks;
  for (int i = 0; i < 20; ++i) {
    VectorClock c;
    for (trace::Tid t = 0; t < 4; ++t) c.set(t, rng.next_below(5));
    clocks.push_back(c);
  }
  for (const auto& a : clocks) {
    EXPECT_TRUE(a.leq(a));  // reflexive
    for (const auto& b : clocks) {
      for (const auto& c : clocks) {
        if (a.leq(b) && b.leq(c)) {
          EXPECT_TRUE(a.leq(c));  // transitive
        }
      }
      if (a.leq(b) && b.leq(a)) {
        EXPECT_TRUE(a == b);  // antisymmetric
      }
    }
  }
}

// -------------------------------------------------------------------- Lockset

TEST(Lockset, PairwiseRaceNeedsDisjointLocks) {
  Event a = make_event(1, 0, EventKind::kMemWrite, 100, {1});
  Event b = make_event(2, 1, EventKind::kMemWrite, 100, {1});
  EXPECT_FALSE(is_potential_lockset_race(a, b));  // common lock 1.
  b.locks_held = {2};
  EXPECT_TRUE(is_potential_lockset_race(a, b));
}

TEST(Lockset, PairwiseRaceNeedsDifferentThreads) {
  Event a = make_event(1, 0, EventKind::kMemWrite, 100);
  Event b = make_event(2, 0, EventKind::kMemWrite, 100);
  EXPECT_FALSE(is_potential_lockset_race(a, b));
}

TEST(Lockset, PairwiseRaceNeedsAWrite) {
  Event a = make_event(1, 0, EventKind::kMemRead, 100);
  Event b = make_event(2, 1, EventKind::kMemRead, 100);
  EXPECT_FALSE(is_potential_lockset_race(a, b));
  b.kind = EventKind::kMemWrite;
  EXPECT_TRUE(is_potential_lockset_race(a, b));
}

TEST(Lockset, PairwiseRaceNeedsSameLocation) {
  Event a = make_event(1, 0, EventKind::kMemWrite, 100);
  Event b = make_event(2, 1, EventKind::kMemWrite, 101);
  EXPECT_FALSE(is_potential_lockset_race(a, b));
}

// ------------------------------------------------------------- Happens-before

TEST(HappensBefore, ProgramOrderWithinThread) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 0, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.ordered(0, 1));
  EXPECT_FALSE(hb.ordered(1, 0));
}

TEST(HappensBefore, UnsynchronizedThreadsAreConcurrent) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 1, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.concurrent(0, 1));
  EXPECT_TRUE(is_potential_hb_race(hb, 0, 1));
}

TEST(HappensBefore, ForkOrdersParentBeforeChild) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 0, EventKind::kThreadFork, /*child=*/1),
      make_event(3, 1, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.ordered(0, 2));
  EXPECT_FALSE(is_potential_hb_race(hb, 0, 2));
}

TEST(HappensBefore, JoinOrdersChildBeforeParent) {
  std::vector<Event> events{
      make_event(1, 1, EventKind::kMemWrite, 5),
      make_event(2, 0, EventKind::kThreadJoin, /*child=*/1),
      make_event(3, 0, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.ordered(0, 2));
}

TEST(HappensBefore, BarrierSeparatesPhases) {
  // Threads 0 and 1 write before and after a 2-party barrier.
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 0, EventKind::kBarrier, 77, {}, /*aux=*/2),
      make_event(3, 1, EventKind::kBarrier, 77, {}, /*aux=*/2),
      make_event(4, 1, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.ordered(0, 3));  // pre-barrier write HB post-barrier write.
}

TEST(HappensBefore, WritesOnSameSideOfBarrierStayConcurrent) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 1, EventKind::kMemWrite, 5),
      make_event(3, 0, EventKind::kBarrier, 77, {}, 2),
      make_event(4, 1, EventKind::kBarrier, 77, {}, 2),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.concurrent(0, 1));
}

TEST(HappensBefore, MessageEdgeOrdersAcrossRanks) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 0, EventKind::kMsgSend, 900),
      make_event(3, 1, EventKind::kMsgRecv, 900),
      make_event(4, 1, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(hb.ordered(0, 3));
}

TEST(HappensBefore, LockEdgesOnlyInPureHbMode) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kLockAcquire, 10, {10}),
      make_event(2, 0, EventKind::kMemWrite, 5, {10}),
      make_event(3, 0, EventKind::kLockRelease, 10, {10}),
      make_event(4, 1, EventKind::kLockAcquire, 10, {10}),
      make_event(5, 1, EventKind::kMemWrite, 5, {10}),
      make_event(6, 1, EventKind::kLockRelease, 10, {10}),
  };
  HbIndex strong = HappensBeforeAnalysis().run(events);
  EXPECT_TRUE(strong.concurrent(1, 4));  // strong HB ignores lock edges.
  HappensBeforeConfig cfg;
  cfg.lock_edges = true;
  HbIndex withlocks = HappensBeforeAnalysis(cfg).run(events);
  EXPECT_TRUE(withlocks.ordered(1, 4));  // pure-HB mode orders them.
}

TEST(HappensBefore, IndexOfSeq) {
  std::vector<Event> events{
      make_event(10, 0, EventKind::kMemWrite, 5),
      make_event(20, 0, EventKind::kMemWrite, 5),
  };
  HbIndex hb = HappensBeforeAnalysis().run(events);
  EXPECT_EQ(hb.index_of_seq(10), 0u);
  EXPECT_EQ(hb.index_of_seq(20), 1u);
  EXPECT_EQ(hb.index_of_seq(15), HbIndex::npos);
}

TEST(HappensBefore, RefusesOutOfRangeThreadIds) {
  // The replay sizes per-thread state by tid, so a tid or a fork/join child
  // outside [0, kMaxTid) is refused instead of indexed.
  const std::vector<Event> kBad[] = {
      {make_event(1, 0, EventKind::kMemWrite, 5),
       make_event(2, -1, EventKind::kMemWrite, 5)},
      {make_event(1, 0, EventKind::kThreadFork, 0xFFFFFFFFu)},
      {make_event(1, trace::kMaxTid, EventKind::kMemRead, 5)},
      {make_event(1, 0, EventKind::kThreadJoin,
                  static_cast<trace::ObjId>(trace::kMaxTid))},
  };
  for (const std::vector<Event>& events : kBad) {
    SCOPED_TRACE(events.back().seq);
    EXPECT_THROW(HappensBeforeAnalysis().run(events), std::invalid_argument);
    EXPECT_THROW(RaceDetector().analyze(events), std::invalid_argument);
    // Past the parallel threshold the grouping pass refuses it too.
    std::vector<Event> long_trace;
    for (trace::Seq s = 1; s <= kParallelAnalysisThreshold; ++s) {
      long_trace.push_back(make_event(s, static_cast<trace::Tid>(s % 4),
                                      EventKind::kMemWrite, 5));
    }
    for (Event e : events) {
      e.seq += kParallelAnalysisThreshold;
      long_trace.push_back(e);
    }
    EXPECT_THROW(HappensBeforeAnalysis().run(long_trace, 4),
                 std::invalid_argument);
  }
  // The last tid below the ceiling replays.
  const HbIndex hb = HappensBeforeAnalysis().run(
      {make_event(1, trace::kMaxTid - 1, EventKind::kMemWrite, 5)});
  EXPECT_EQ(hb.stamp_get(0, trace::kMaxTid - 1), 1u);
}

// --------------------------------------------------------------- RaceDetector

std::vector<Event> critical_guarded_trace() {
  // Two threads write var 5 inside the same critical section (lock 10).
  return {
      make_event(1, 0, EventKind::kLockAcquire, 10, {10}),
      make_event(2, 0, EventKind::kMemWrite, 5, {10}),
      make_event(3, 0, EventKind::kLockRelease, 10, {10}),
      make_event(4, 1, EventKind::kLockAcquire, 10, {10}),
      make_event(5, 1, EventKind::kMemWrite, 5, {10}),
      make_event(6, 1, EventKind::kLockRelease, 10, {10}),
  };
}

std::vector<Event> lucky_lock_ordering_trace() {
  // Two threads write var 5; only thread 0 holds a lock. The interleaving is
  // racy regardless of observed order.
  return {
      make_event(1, 0, EventKind::kLockAcquire, 10, {10}),
      make_event(2, 0, EventKind::kMemWrite, 5, {10}),
      make_event(3, 0, EventKind::kLockRelease, 10, {10}),
      make_event(4, 1, EventKind::kMemWrite, 5, {}),
  };
}

TEST(RaceDetector, HybridIgnoresCriticalGuardedPairs) {
  RaceDetector detector({DetectorMode::kHybrid, 0});
  auto report = detector.analyze(critical_guarded_trace());
  EXPECT_FALSE(report.concurrent(5));
}

TEST(RaceDetector, LocksetOnlyAlsoIgnoresCommonLock) {
  RaceDetector detector({DetectorMode::kLocksetOnly, 0});
  auto report = detector.analyze(critical_guarded_trace());
  EXPECT_FALSE(report.concurrent(5));
}

TEST(RaceDetector, HybridCatchesUnmanifestedRace) {
  // The race did not manifest (accesses were ordered in real time), but no
  // common lock protects them and no strong HB edge orders them.
  RaceDetector detector({DetectorMode::kHybrid, 0});
  auto report = detector.analyze(lucky_lock_ordering_trace());
  EXPECT_TRUE(report.concurrent(5));
}

TEST(RaceDetector, PureHbMissesRaceHiddenByLockOrdering) {
  // With release->acquire edges, thread 1's write is *not* ordered by the
  // lock here (thread 1 takes no lock), so pure HB still reports...
  RaceDetector hb_only({DetectorMode::kHbOnly, 0});
  EXPECT_TRUE(hb_only.analyze(lucky_lock_ordering_trace()).concurrent(5));
  // ...but in a trace where both threads use the lock yet a genuine race
  // exists on an unprotected second variable, pure HB is blinded by the
  // accidental release->acquire ordering:
  std::vector<Event> trace{
      make_event(1, 0, EventKind::kLockAcquire, 10, {10}),
      make_event(2, 0, EventKind::kMemWrite, 6, {10}),  // var 6: lock held...
      make_event(3, 0, EventKind::kLockRelease, 10, {10}),
      make_event(4, 1, EventKind::kLockAcquire, 10, {10}),
      make_event(5, 1, EventKind::kLockRelease, 10, {10}),
      make_event(6, 1, EventKind::kMemWrite, 6, {}),  // ...var 6 without lock.
  };
  EXPECT_FALSE(RaceDetector({DetectorMode::kHbOnly, 0}).analyze(trace).concurrent(6));
  EXPECT_TRUE(RaceDetector({DetectorMode::kHybrid, 0}).analyze(trace).concurrent(6));
}

TEST(RaceDetector, BarrierSuppressesHybridReport) {
  std::vector<Event> events{
      make_event(1, 0, EventKind::kMemWrite, 5),
      make_event(2, 0, EventKind::kBarrier, 77, {}, 2),
      make_event(3, 1, EventKind::kBarrier, 77, {}, 2),
      make_event(4, 1, EventKind::kMemWrite, 5),
  };
  EXPECT_FALSE(RaceDetector({DetectorMode::kHybrid, 0}).analyze(events).concurrent(5));
  // Pure lockset ignores the barrier and over-reports — the paper's
  // motivation for combining the analyses.
  EXPECT_TRUE(
      RaceDetector({DetectorMode::kLocksetOnly, 0}).analyze(events).concurrent(5));
}

TEST(RaceDetector, PairCapRespected) {
  std::vector<Event> events;
  trace::Seq seq = 1;
  for (int i = 0; i < 20; ++i) {
    events.push_back(make_event(seq++, i % 2, EventKind::kMemWrite, 5));
  }
  RaceDetectorConfig cfg;
  cfg.max_pairs_per_var = 3;
  auto report = RaceDetector(cfg).analyze(events);
  ASSERT_TRUE(report.concurrent(5));
  EXPECT_EQ(report.verdict(5)->pairs.size(), 3u);
}

TEST(RaceDetector, SummaryMentionsMode) {
  auto report = RaceDetector().analyze({});
  EXPECT_NE(report.summary().find("hybrid"), std::string::npos);
}

TEST(RaceDetector, GroupingInRangesKeepsEveryVerdictAtOneToFourWorkers) {
  // Above the parallel threshold, accesses are grouped over 1-4 contiguous
  // event ranges.  Forty variables are hit throughout, by six threads with
  // and without a lock, plus one variable hit only on both sides of every
  // range seam (event n*r/w for w = 2, 3, 4), with a fork and barriers in
  // between.  Every worker count must feed each variable's accesses in seq
  // order, so the verdicts, their pairs and their tallies match exactly.
  constexpr std::size_t kEvents = 6000;
  constexpr trace::ObjId kSeamVar = 900;
  std::vector<std::size_t> seams;
  for (std::size_t w = 2; w <= 4; ++w) {
    for (std::size_t r = 1; r < w; ++r) seams.push_back(kEvents * r / w);
  }
  util::Rng rng(23);
  std::vector<Event> events;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const auto seq = static_cast<trace::Seq>(i + 1);
    const auto tid = static_cast<trace::Tid>(rng.next_below(6));
    const bool at_seam = std::find(seams.begin(), seams.end(), i) != seams.end() ||
                         std::find(seams.begin(), seams.end(), i + 1) != seams.end();
    if (i == 0) {
      events.push_back(make_event(seq, 0, EventKind::kThreadFork, 5));
    } else if (i % 1000 == 700 || i % 1000 == 701) {
      // A two-party barrier of threads 0 and 1.
      events.push_back(make_event(seq, static_cast<trace::Tid>(i % 2),
                                  EventKind::kBarrier, 700 + i / 1000, {}, 2));
    } else if (at_seam) {
      events.push_back(make_event(seq, tid, EventKind::kMemWrite, kSeamVar));
    } else {
      const EventKind kind = rng.next_bool(0.6) ? EventKind::kMemWrite
                                                : EventKind::kMemRead;
      std::vector<trace::ObjId> locks;
      if (rng.next_bool(0.3)) locks = {500};
      events.push_back(make_event(seq, tid, kind, 100 + rng.next_below(40),
                                  std::move(locks)));
    }
  }
  ASSERT_GT(events.size(), kParallelAnalysisThreshold);

  const auto run = [&events](std::size_t workers) {
    RaceDetectorConfig cfg;
    cfg.analysis_threads = workers;
    return RaceDetector(cfg).analyze(events);
  };
  const ConcurrencyReport serial = run(1);
  ASSERT_EQ(serial.verdicts().size(), 41u);
  ASSERT_NE(serial.verdict(kSeamVar), nullptr);
  EXPECT_TRUE(serial.concurrent(kSeamVar));
  for (std::size_t workers = 2; workers <= 4; ++workers) {
    SCOPED_TRACE(workers);
    const ConcurrencyReport got = run(workers);
    ASSERT_EQ(got.verdicts().size(), serial.verdicts().size());
    auto want = serial.verdicts().begin();
    for (const auto& [var, verdict] : got.verdicts()) {
      const VariableVerdict& expected = (want++)->second;
      ASSERT_EQ(var, expected.var);
      EXPECT_EQ(verdict.var, var);
      EXPECT_EQ(verdict.concurrent, expected.concurrent) << var;
      EXPECT_EQ(verdict.pairs_checked, expected.pairs_checked) << var;
      EXPECT_EQ(verdict.epoch_hits, expected.epoch_hits) << var;
      ASSERT_EQ(verdict.pairs.size(), expected.pairs.size()) << var;
      for (std::size_t k = 0; k < verdict.pairs.size(); ++k) {
        const ConcurrentPair& a = verdict.pairs[k];
        const ConcurrentPair& b = expected.pairs[k];
        EXPECT_EQ(std::tie(a.first, a.second, a.tid1, a.tid2),
                  std::tie(b.first, b.second, b.tid1, b.tid2))
            << var << " pair " << k;
      }
    }
  }
}

}  // namespace
}  // namespace home::detect
