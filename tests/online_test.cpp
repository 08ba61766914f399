// Online streaming engine tests:
//  * EventQueue backpressure (lossless kBlock ordering, kDropNewest counting),
//  * ViolationStream dedup + live rate limiting,
//  * TraceLog streaming sink (strictly increasing seq under concurrent
//    emitters, streaming-only mode),
//  * IncrementalHb == HappensBeforeAnalysis stamps; watermark soundness
//    around silent and joined threads,
//  * the streamed frontier reports the post-mortem detector's pairs
//    pair-for-pair on seeded random traces, with epoch retirement
//    interleaved at several cadences,
//  * OnlineAnalyzer bounded-memory: resident state stays under a fixed cap
//    while streaming 10x the events a post-mortem run would buffer.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/online/event_queue.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/online/violation_stream.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"
#include "tests/oracle/fixtures.hpp"

namespace home::online {
namespace {

using detect::DetectorMode;
using detect::IncrementalFrontier;
using detect::IncrementalHb;
using detect::OnlineAccess;
using detect::RaceDetectorConfig;
using detect::VectorClock;
using trace::Event;
using trace::EventKind;

using oracle::random_trace;
using oracle::report_pairs;
using oracle::SeqPair;
using oracle::streamed_pairs;

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, BlockPolicyDeliversEverythingInOrder) {
  EventQueue q(4, BackpressurePolicy::kBlock);
  constexpr int kCount = 1000;
  std::thread producer([&q] {
    for (int i = 0; i < kCount; ++i) {
      Event e;
      e.seq = static_cast<trace::Seq>(i + 1);
      ASSERT_TRUE(q.push(std::move(e)));
    }
    q.close();
  });
  std::vector<trace::Seq> got;
  Event e;
  while (q.pop(&e)) got.push_back(e.seq);
  producer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              static_cast<trace::Seq>(i + 1));
  }
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_LE(q.max_depth(), 4u);
}

TEST(EventQueue, DropNewestCountsWhatItSheds) {
  EventQueue q(2, BackpressurePolicy::kDropNewest);
  EXPECT_TRUE(q.push(Event{}));
  EXPECT_TRUE(q.push(Event{}));
  EXPECT_FALSE(q.push(Event{}));  // full: dropped, not blocked.
  EXPECT_FALSE(q.push(Event{}));
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(q.depth(), 2u);

  q.close();
  Event e;
  EXPECT_TRUE(q.pop(&e));  // pending events survive close.
  EXPECT_TRUE(q.pop(&e));
  EXPECT_FALSE(q.pop(&e));
  EXPECT_FALSE(q.push(Event{}));  // closed.
}

// -------------------------------------------------------- ViolationStream

spec::Violation make_violation(spec::ViolationType type,
                               const std::string& site) {
  spec::Violation v;
  v.type = type;
  v.rank = 0;
  v.callsite1 = site;
  return v;
}

TEST(ViolationStream, DeduplicatesByKeyAndRateLimitsLiveReports) {
  ViolationStreamConfig cfg;
  std::vector<std::string> live;
  cfg.on_violation = [&live](const spec::Violation& v) {
    live.push_back(v.callsite1);
  };
  ViolationStream stream(cfg);

  const std::size_t probes = kMaxLiveReportsPerType + 3;
  for (std::size_t i = 0; i < probes; ++i) {
    EXPECT_TRUE(stream.offer(make_violation(spec::ViolationType::kProbe,
                                            "site" + std::to_string(i))));
  }
  // Duplicate keys are swallowed.
  EXPECT_FALSE(
      stream.offer(make_violation(spec::ViolationType::kProbe, "site0")));
  // A different type has its own live budget.
  EXPECT_TRUE(stream.offer(
      make_violation(spec::ViolationType::kConcurrentRecv, "siteX")));

  EXPECT_EQ(stream.recorded(), probes + 1);
  EXPECT_EQ(stream.duplicates(), 1u);
  // 16 probes + 1 recv live; the 3 probes past the budget are suppressed.
  EXPECT_EQ(stream.live_reports(), kMaxLiveReportsPerType + 1);
  EXPECT_EQ(stream.suppressed(), 3u);
  ASSERT_EQ(live.size(), kMaxLiveReportsPerType + 1);
  EXPECT_EQ(live[0], "site0");
  EXPECT_EQ(live[kMaxLiveReportsPerType - 1],
            "site" + std::to_string(kMaxLiveReportsPerType - 1));
  EXPECT_EQ(live.back(), "siteX");

  const std::vector<spec::Violation> all = stream.take();
  ASSERT_EQ(all.size(), probes + 1);  // rate limiting never drops the record.
  EXPECT_EQ(all.front().callsite1, "site0");
  EXPECT_EQ(all.back().callsite1, "siteX");
}

// ------------------------------------------------------- TraceLog streaming

class RecordingSink : public trace::EventSink {
 public:
  void on_event(const Event& e) override { seqs_.push_back(e.seq); }
  const std::vector<trace::Seq>& seqs() const { return seqs_; }

 private:
  std::vector<trace::Seq> seqs_;
};

TEST(TraceLogStreaming, SinkSeesStrictlyIncreasingSeqUnderConcurrentEmit) {
  trace::TraceLog log;
  RecordingSink sink;
  log.set_sink(&sink);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Event e;
        e.tid = t;
        e.kind = EventKind::kMemWrite;
        e.obj = 1;
        log.emit(std::move(e));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  log.set_sink(nullptr);

  // The sink observed every event, in strictly increasing seq order — the
  // property the streaming analyzer's clock replay depends on.
  const auto& seqs = sink.seqs();
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    ASSERT_LT(seqs[i - 1], seqs[i]) << "at index " << i;
  }
  // And the log retained the trace alongside (for post-mortem passes).
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(TraceLogStreaming, StreamingOnlyModeSkipsTheShardAppend) {
  trace::TraceLog log;
  RecordingSink sink;
  log.set_sink(&sink);
  log.set_streaming_only(true);
  for (int i = 0; i < 5; ++i) log.emit(Event{});
  log.set_sink(nullptr);
  EXPECT_EQ(sink.seqs().size(), 5u);
  EXPECT_EQ(log.size(), 0u);  // nothing buffered: bounded-memory runs.
}

// ----------------------------------------------------------- IncrementalHb

/// Forks, a barrier whose participant is joined before its next event, a
/// thread that emits again after its join, a re-fork and a self-join: every
/// way the replay writes another thread's clock or restarts one.
std::vector<Event> fork_join_trace() {
  const struct { trace::Tid tid; EventKind kind; trace::ObjId obj; } spec[] = {
      {0, EventKind::kThreadFork, 1},  {0, EventKind::kThreadFork, 2},
      {1, EventKind::kMemWrite, 100},  {2, EventKind::kBarrier, 900},
      {1, EventKind::kBarrier, 900},   {0, EventKind::kThreadJoin, 1},
      {2, EventKind::kMemWrite, 100},  {1, EventKind::kMemWrite, 100},
      {0, EventKind::kThreadFork, 1},  {1, EventKind::kMemRead, 100},
      {2, EventKind::kThreadJoin, 2},  {2, EventKind::kMemWrite, 101},
      {0, EventKind::kThreadJoin, 2},  {0, EventKind::kMemWrite, 100},
  };
  std::vector<Event> events;
  for (const auto& s : spec) {
    Event e;
    e.seq = events.size() + 1;
    e.tid = s.tid;
    e.kind = s.kind;
    e.obj = s.obj;
    e.aux = s.kind == EventKind::kBarrier ? 2 : 0;
    events.push_back(std::move(e));
  }
  return events;
}

TEST(IncrementalHbTest, StampsMatchPostMortemReplay) {
  std::vector<std::vector<Event>> traces = {fork_join_trace()};
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    traces.push_back(random_trace(seed));
  }
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const std::vector<Event>& events = traces[k];
    detect::HappensBeforeConfig cfg;
    const detect::HbIndex hb = detect::HappensBeforeAnalysis(cfg).run(events);
    IncrementalHb inc(cfg);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const detect::StampView view = inc.advance(events[i]);
      ASSERT_TRUE(view.to_clock() == hb.stamp_clock(i))
          << "trace " << k << " event " << i;
      // The epoch face of the view is the stamp's own component.
      ASSERT_EQ(view.value, hb.stamp_get(i, events[i].tid))
          << "trace " << k << " event " << i;
    }
  }
}

TEST(IncrementalHbTest, SilentDeclaredThreadPinsTheWatermark) {
  IncrementalHb inc;
  Event e;
  e.seq = 1;
  e.tid = 0;
  e.kind = EventKind::kMemWrite;
  e.obj = 100;
  inc.advance(e);

  VectorClock wm;
  EXPECT_TRUE(inc.watermark(&wm));  // only thread 0 is live.
  EXPECT_EQ(wm.get(0), 1u);

  // A declared thread that has not stamped anything makes retirement unsafe:
  // its first event could still be concurrent with anything retained.
  inc.declare_thread(1);
  EXPECT_FALSE(inc.watermark(&wm));

  // Once it emits, the meet is over both clocks again.
  e.seq = 2;
  e.tid = 1;
  inc.advance(e);
  ASSERT_TRUE(inc.watermark(&wm));
  EXPECT_EQ(wm.get(0), 0u);  // thread 1 never heard from thread 0.
}

TEST(IncrementalHbTest, JoinedThreadStopsConstrainingTheWatermark) {
  IncrementalHb inc;
  Event fork;
  fork.seq = 1;
  fork.tid = 0;
  fork.kind = EventKind::kThreadFork;
  fork.obj = 1;  // child tid.
  inc.advance(fork);

  Event child;
  child.seq = 2;
  child.tid = 1;
  child.kind = EventKind::kMemWrite;
  child.obj = 100;
  inc.advance(child);

  Event join;
  join.seq = 3;
  join.tid = 0;
  join.kind = EventKind::kThreadJoin;
  join.obj = 1;
  inc.advance(join);

  // The child's history is absorbed into the parent; the watermark is now
  // the parent's clock alone, which dominates the child's last stamp.
  VectorClock wm;
  ASSERT_TRUE(inc.watermark(&wm));
  EXPECT_GE(wm.get(0), 2u);
  EXPECT_GE(wm.get(1), 1u);
  // Re-declaring a joined thread must not resurrect it.
  inc.declare_thread(1);
  EXPECT_TRUE(inc.watermark(&wm));
}

// ----------------------------------------- IncrementalFrontier equivalence

class FrontierStreamEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FrontierStreamEquivalence, PairsMatchPostMortemAtAnyRetireCadence) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  for (const DetectorMode mode : {DetectorMode::kHybrid, DetectorMode::kHbOnly}) {
    for (const std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
      RaceDetectorConfig cfg;
      cfg.mode = mode;
      cfg.max_pairs_per_var = cap;
      cfg.analysis_threads = 1;
      const auto expected =
          report_pairs(detect::RaceDetector(cfg).analyze(events));
      for (const std::size_t cadence : {std::size_t{0}, std::size_t{1},
                                        std::size_t{7}, std::size_t{64}}) {
        const auto got = streamed_pairs(events, cfg, cadence);
        // Variables with no reported pairs may be absent on either side.
        for (const auto& [var, pairs] : expected) {
          auto it = got.find(var);
          const std::vector<SeqPair> empty;
          const std::vector<SeqPair>& online = it == got.end() ? empty
                                                               : it->second;
          EXPECT_EQ(online, pairs)
              << "var=" << var << " mode=" << detect::detector_mode_name(mode)
              << " cap=" << cap << " cadence=" << cadence << " seed=" << seed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierStreamEquivalence,
                         ::testing::Range(0, 40));

TEST(FrontierStreamEquivalence, LocksetOnlyMatchesWithoutRetirement) {
  // kLocksetOnly ignores HB, so retirement is disabled — but the streamed
  // sweep itself must still match post-mortem.
  const std::vector<Event> events = random_trace(97);
  RaceDetectorConfig cfg;
  cfg.mode = DetectorMode::kLocksetOnly;
  cfg.analysis_threads = 1;
  const auto expected =
      report_pairs(detect::RaceDetector(cfg).analyze(events));
  const auto got = streamed_pairs(events, cfg, 0);
  for (const auto& [var, pairs] : expected) {
    auto it = got.find(var);
    const std::vector<SeqPair> empty;
    EXPECT_EQ(it == got.end() ? empty : it->second, pairs) << "var=" << var;
  }
}

// ------------------------------------- recent-access ring eviction

Event access_event(trace::Seq seq, trace::Tid tid, trace::ObjId var,
                   std::vector<trace::ObjId> locks = {}) {
  Event e;
  e.seq = seq;
  e.tid = tid;
  e.kind = EventKind::kMemWrite;
  e.obj = var;
  e.locks_held = std::move(locks);
  return e;
}

TEST(FrontierHistoryEviction, RacyPairBeyondRingDepthIsStillReported) {
  // t0 writes the variable far more than kFrontierHistory times (all the
  // same (write, lockset) class), then t1 writes with no synchronization.
  // The ring has long since evicted t0's early accesses, but the keyed
  // class maximum keeps one representative per class alive — so the race
  // is still reported, just against a same-class representative rather
  // than the literal first access.  (Same-class representatives preserve
  // verdicts: for same-class a →po a', a ∥ b implies a' ∥ b.)
  constexpr trace::ObjId kVar = 100;
  std::vector<Event> events;
  trace::Seq seq = 1;
  for (int i = 0; i < 20; ++i) events.push_back(access_event(seq++, 0, kVar));
  events.push_back(access_event(seq++, 1, kVar));

  RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;
  ASSERT_GT(20u, detect::kFrontierHistory);
  const detect::ConcurrencyReport report =
      detect::RaceDetector(cfg).analyze(events);
  const auto it = report.verdicts().find(kVar);
  ASSERT_NE(it, report.verdicts().end());
  EXPECT_TRUE(it->second.concurrent);
  ASSERT_FALSE(it->second.pairs.empty());
  // Every reported pair pits a t0 representative against t1's access.
  for (const detect::ConcurrentPair& p : it->second.pairs) {
    EXPECT_EQ(report.hb().events()[p.first].tid, 0);
    EXPECT_EQ(report.hb().events()[p.second].tid, 1);
  }
}

TEST(FrontierHistoryEviction, OlderLocksetClassSurvivesRingEviction) {
  // The first access holds a lock (its own class); 20 lock-free writes then
  // cycle the ring.  The keyed map still holds the lock-class access, so
  // the *exact* old pair (seq 1, t1's access) is reported, not just a
  // representative.
  constexpr trace::ObjId kVar = 100;
  constexpr trace::ObjId kLock = 500;
  std::vector<Event> events;
  trace::Seq seq = 1;
  events.push_back(access_event(seq++, 0, kVar, {kLock}));
  const trace::Seq old_seq = events.back().seq;
  for (int i = 0; i < 20; ++i) events.push_back(access_event(seq++, 0, kVar));
  events.push_back(access_event(seq++, 1, kVar));
  const trace::Seq racer_seq = events.back().seq;

  RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;
  const detect::ConcurrencyReport report =
      detect::RaceDetector(cfg).analyze(events);
  const auto it = report.verdicts().find(kVar);
  ASSERT_NE(it, report.verdicts().end());
  bool found_old_pair = false;
  for (const detect::ConcurrentPair& p : it->second.pairs) {
    if (report.hb().events()[p.first].seq == old_seq &&
        report.hb().events()[p.second].seq == racer_seq) {
      found_old_pair = true;
    }
  }
  EXPECT_TRUE(found_old_pair)
      << "keyed class maximum should outlive the recent-access ring";
}

TEST(FrontierHistoryEviction, IncrementalFrontierMatchesAndRetireIsSafe) {
  // Same shape streamed through the incremental frontier, with a retirement
  // attempt before the racing thread has spoken: the silent-but-declared
  // thread pins the watermark, so nothing is reclaimed and the verdict
  // survives.
  constexpr trace::ObjId kVar = 100;
  RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;
  detect::HappensBeforeConfig hb_cfg;
  IncrementalHb hb(hb_cfg);
  hb.declare_thread(0);
  hb.declare_thread(1);
  IncrementalFrontier frontier(cfg);

  std::vector<IncrementalFrontier::PairHit> hits;
  trace::Seq seq = 1;
  for (int i = 0; i < 20; ++i) {
    const Event e = access_event(seq++, 0, kVar);
    const detect::StampView stamp = hb.advance(e);
    auto rec = std::make_shared<OnlineAccess>();
    rec->seq = e.seq;
    rec->tid = e.tid;
    rec->write = true;
    hits.clear();
    frontier.on_access(kVar, std::move(rec), stamp, &hits);
    EXPECT_TRUE(hits.empty());
  }

  // Retirement attempt: thread 1 is declared but silent, so no watermark.
  VectorClock wm;
  EXPECT_FALSE(hb.watermark(&wm));
  const std::size_t resident_before = frontier.resident_records();

  const Event racer = access_event(seq++, 1, kVar);
  const detect::StampView stamp = hb.advance(racer);
  auto rec = std::make_shared<OnlineAccess>();
  rec->seq = racer.seq;
  rec->tid = racer.tid;
  rec->write = true;
  hits.clear();
  frontier.on_access(kVar, std::move(rec), stamp, &hits);
  EXPECT_FALSE(hits.empty());
  EXPECT_TRUE(frontier.concurrent(kVar));
  EXPECT_GE(frontier.resident_records(), resident_before + 1);
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.first->tid, 0);
    EXPECT_EQ(hit.second->tid, 1);
  }
}

// ------------------------------------------------- bounded resident state

/// A long stream: round-robin writes with fresh message edges (the state
/// that grows without bound unless retired) and periodic full barriers (the
/// synchronization that advances the watermark).
std::vector<Event> long_stream(std::size_t n_events, int threads) {
  std::vector<Event> events;
  events.reserve(n_events + n_events / 64 * static_cast<std::size_t>(threads));
  trace::Seq seq = 1;
  trace::ObjId msg = 7000;
  std::size_t i = 0;
  while (events.size() < n_events) {
    const auto tid = static_cast<trace::Tid>(i % static_cast<std::size_t>(threads));
    Event e;
    e.seq = seq++;
    e.tid = tid;
    if (i % 3 == 0) {
      e.kind = EventKind::kMsgSend;
      e.obj = msg;
    } else if (i % 3 == 1) {
      e.kind = EventKind::kMsgRecv;
      e.obj = msg++;
    } else {
      e.kind = EventKind::kMemWrite;
      e.obj = 100 + static_cast<trace::ObjId>(i % 6);
    }
    events.push_back(std::move(e));
    ++i;
    if (i % 64 == 0) {
      const trace::ObjId barrier = 9000 + static_cast<trace::ObjId>(i);
      for (int t = 0; t < threads; ++t) {
        Event b;
        b.seq = seq++;
        b.tid = static_cast<trace::Tid>(t);
        b.kind = EventKind::kBarrier;
        b.obj = barrier;
        b.aux = static_cast<std::uint64_t>(threads);
        events.push_back(std::move(b));
      }
    }
  }
  return events;
}

TEST(OnlineAnalyzerBoundedMemory, ResidentStateStaysUnderCapOn10xStreams) {
  // Post-mortem buffers every event; the online engine must stay flat.  A
  // "post-mortem default" trace here is ~10k events; stream 10x that.
  constexpr std::size_t kPostMortemDefault = 10000;
  constexpr int kThreads = 4;
  const std::vector<Event> events =
      long_stream(10 * kPostMortemDefault, kThreads);

  trace::ThreadRegistry registry;
  for (int t = 0; t < kThreads; ++t) {
    registry.register_thread(trace::kNoTid, 0, t == 0);
  }

  OnlineConfig cfg;
  cfg.queue_capacity = 256;
  cfg.retire_interval = 256;
  OnlineAnalyzer analyzer(cfg, nullptr, &registry);
  for (const Event& e : events) analyzer.on_event(e);
  analyzer.finish();

  const OnlineStats stats = analyzer.stats();
  EXPECT_EQ(stats.events_processed, events.size());
  EXPECT_EQ(stats.events_dropped, 0u);
  EXPECT_GT(stats.retire_sweeps, 0u);
  EXPECT_GT(stats.records_retired, 0u);

  // The fixed cap: far below the trace length the post-mortem pipeline
  // would buffer (each message edge alone would retain a clock forever).
  constexpr std::size_t kResidentCap = 2000;
  EXPECT_LT(stats.peak_resident, kResidentCap)
      << "resident state grew with trace length";
  EXPECT_LT(stats.final_resident, kResidentCap);

  // Control: with retirement disabled the same stream blows through the cap,
  // so the bound above is genuinely retirement's doing.
  OnlineConfig no_retire = cfg;
  no_retire.retire_interval = 0;
  OnlineAnalyzer unbounded(no_retire, nullptr, &registry);
  for (const Event& e : events) unbounded.on_event(e);
  unbounded.finish();
  EXPECT_GT(unbounded.stats().peak_resident, kResidentCap);
}

TEST(OnlineAnalyzer, DropNewestPolicyCountsDroppedEvents) {
  // A tiny queue with a slow start cannot drop under kBlock; under
  // kDropNewest it may, and every loss is accounted for.
  OnlineConfig cfg;
  cfg.queue_capacity = 1;
  cfg.backpressure = BackpressurePolicy::kDropNewest;
  OnlineAnalyzer analyzer(cfg, nullptr, nullptr);
  constexpr std::size_t kCount = 5000;
  for (std::size_t i = 0; i < kCount; ++i) {
    Event e;
    e.seq = static_cast<trace::Seq>(i + 1);
    e.tid = 0;
    e.kind = EventKind::kMemWrite;
    e.obj = 100;
    analyzer.on_event(e);
  }
  analyzer.finish();
  const OnlineStats stats = analyzer.stats();
  EXPECT_EQ(stats.events_processed + stats.events_dropped, kCount);
}

}  // namespace
}  // namespace home::online
