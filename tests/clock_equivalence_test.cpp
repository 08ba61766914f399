// Clock-engine equivalence: the epoch engine must be verdict-equivalent to
// full vector clocks everywhere, judged by the independent pairwise oracle
// (tests/oracle/, its own dense vector-clock replay) —
//  * post-mortem: the O(1) epoch test answers exactly what a full two-sided
//    clock compare answers on every seq-ordered cross-thread access pair,
//    and the engine's verdicts and reported pairs agree with the oracle in
//    every DetectorMode, capped and uncapped,
//  * streaming: at every retirement cadence the streamed verdicts equal the
//    oracle's and every streamed pair is racy by its judgment; with
//    retirement off the streamed epoch tally equals the post-mortem one,
//  * end to end: an online run's violation keys equal a post-mortem pass
//    over the trace the same run retained,
//  * the supporting structures behave: FlatMap matches std::map under a
//    randomized op sequence, and ClockArena dedupes content-equal clocks
//    (trailing-zero padding included) and compacts unreferenced entries.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/apps/app.hpp"
#include "src/detect/clock_arena.hpp"
#include "src/detect/flat_map.hpp"
#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/detect/stamp.hpp"
#include "src/home/check.hpp"
#include "src/util/rng.hpp"
#include "tests/oracle/fixtures.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace home::detect {
namespace {

using oracle::PairwiseOracle;
using oracle::random_trace;
using trace::Event;
using trace::EventKind;

// The clock suites draw their traces from their own seed range so they do
// not repeat detect_equivalence_test's.
constexpr std::uint64_t kPostMortemSeeds = 1000;
constexpr std::uint64_t kStreamingSeeds = 2000;

// ------------------------------------------ post-mortem epoch == oracle

class ClockEngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ClockEngineEquivalence, PostMortemVerdictsAndPairsMatch) {
  const std::uint64_t seed =
      kPostMortemSeeds + static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kLocksetOnly,
        DetectorMode::kHbOnly}) {
    const PairwiseOracle oracle(events, oracle::oracle_mode(mode));
    // The epoch lemma, pair by pair: for j before i on another thread, the
    // engine's one-component test equals the oracle's full compare.
    const HbIndex hb =
        HappensBeforeAnalysis(happens_before_config(mode)).run(events);
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const trace::Tid tj = events[j].tid;
        if (tj == events[i].tid) continue;
        ASSERT_FALSE(oracle.ordered(i, j)) << "seed=" << seed;
        ASSERT_EQ(hb.stamp_get(j, tj) <= hb.stamp_get(i, tj),
                  oracle.ordered(j, i))
            << "mode=" << detector_mode_name(mode) << " seed=" << seed
            << " pair=(" << j << "," << i << ")";
      }
    }
    for (const std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
      RaceDetectorConfig cfg;
      cfg.mode = mode;
      cfg.max_pairs_per_var = cap;
      cfg.analysis_threads = 1;
      const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
      EXPECT_EQ(oracle::engine_verdicts(report), oracle.verdicts())
          << "mode=" << detector_mode_name(mode) << " cap=" << cap
          << " seed=" << seed;
      for (const auto& [var, verdict] : report.verdicts()) {
        if (cap != 0) {
          EXPECT_LE(verdict.pairs.size(), cap);
        }
        for (const ConcurrentPair& p : verdict.pairs) {
          EXPECT_TRUE(oracle.racy(p.first, p.second))
              << "mode=" << detector_mode_name(mode) << " var=" << var;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockEngineEquivalence,
                         ::testing::Range(0, 60));

// ------------------------------------------------ streaming epoch == oracle

class ClockEngineStreaming : public ::testing::TestWithParam<int> {};

TEST_P(ClockEngineStreaming, StreamedPairsMatchAtEveryRetireCadence) {
  const std::uint64_t seed =
      kStreamingSeeds + static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  for (const DetectorMode mode :
       {DetectorMode::kHybrid, DetectorMode::kHbOnly}) {
    const PairwiseOracle oracle(events, oracle::oracle_mode(mode));
    const std::map<trace::ObjId, bool> expected = oracle.verdicts();
    std::map<trace::Seq, std::size_t> index_of;
    for (std::size_t i = 0; i < events.size(); ++i) {
      index_of[events[i].seq] = i;
    }
    RaceDetectorConfig cfg;
    cfg.mode = mode;
    for (const std::size_t cadence :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      const oracle::PairsByVar streamed =
          oracle::streamed_pairs(events, cfg, cadence);
      // A variable is concurrent iff it reported a pair (the budget always
      // admits the first one).
      std::map<trace::ObjId, bool> got;
      for (const auto& [var, pairs] : streamed) {
        got[var] = !pairs.empty();
        for (const oracle::SeqPair& p : pairs) {
          EXPECT_TRUE(oracle.racy(index_of.at(p.first), index_of.at(p.second)))
              << "var=" << var << " cadence=" << cadence << " seed=" << seed;
        }
      }
      EXPECT_EQ(got, expected)
          << "mode=" << detector_mode_name(mode) << " cadence=" << cadence
          << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockEngineStreaming, ::testing::Range(0, 24));

TEST(ClockEngineStreaming, EpochHitTallyMatchesPostMortem) {
  // One definition of `clock.epoch_hits`: with retirement off the streamed
  // frontier performs exactly the post-mortem sweep's epoch tests.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::vector<Event> events = random_trace(seed);
    for (const DetectorMode mode :
         {DetectorMode::kHybrid, DetectorMode::kHbOnly}) {
      RaceDetectorConfig cfg;
      cfg.mode = mode;
      cfg.analysis_threads = 1;
      const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
      std::size_t post_mortem = 0;
      for (const auto& [var, verdict] : report.verdicts()) {
        post_mortem += verdict.epoch_hits;
      }
      std::size_t streamed = 0;
      oracle::streamed_pairs(events, cfg, 0, &streamed);
      EXPECT_EQ(streamed, post_mortem)
          << "mode=" << detector_mode_name(mode) << " seed=" << seed;
      EXPECT_GT(streamed, 0u);
    }
  }
}

// -------------------------------------------- end-to-end online equivalence

TEST(ClockEngineOnline, AnalyzerViolationKeySetsMatchAcrossEngines) {
  // The full streaming pipeline (Session in kOnline mode) on the paper's
  // injected-violation app: the streamed violation keys must equal a
  // post-mortem pass over the same run's retained trace, at any cadence.
  const apps::AppConfig app = apps::paper_config(apps::AppKind::kLU, 2);
  auto rank_main = [&app](simmpi::Process& p) { apps::run_app_rank(app, p); };

  for (const std::size_t retire : {std::size_t{64}, std::size_t{1024}}) {
    CheckConfig cfg;
    cfg.nranks = app.nranks;
    cfg.nthreads = app.nthreads;
    cfg.block_timeout_ms = app.block_timeout_ms;
    cfg.session.mode = AnalysisMode::kOnline;
    cfg.session.online.retire_interval = retire;
    const oracle::OnlineRun run = oracle::run_online(cfg, rank_main);
    ASSERT_TRUE(run.run.ok());
    EXPECT_EQ(oracle::key_set(run.report), run.post_mortem_keys)
        << "retire=" << retire;
    EXPECT_FALSE(run.post_mortem_keys.empty());
    EXPECT_GT(run.stats.epoch_hits, 0u);
  }
}

// ------------------------------------------------------------- ClockArena

TEST(ClockArena, InternDedupesAndNormalizesTrailingZeros) {
  ClockArena arena;
  const std::uint64_t a[] = {3, 5, 0, 0};
  const std::uint64_t b[] = {3, 5};
  const std::uint64_t c[] = {3, 5, 7};
  const ClockRef ra = arena.intern(a, 4);
  const ClockRef rb = arena.intern(b, 2);
  const ClockRef rc = arena.intern(c, 3);
  EXPECT_EQ(ra.get(), rb.get());  // padding-insensitive: one allocation.
  EXPECT_NE(ra.get(), rc.get());
  EXPECT_EQ(ra->size(), 2u);  // stored normalized.
  EXPECT_EQ(ra->get(0), 3u);
  EXPECT_EQ(ra->get(1), 5u);
  EXPECT_EQ(ra->get(9), 0u);  // out-of-range reads as zero.
  EXPECT_EQ(arena.resident_clocks(), 2u);
}

TEST(ClockArena, CompactDropsOnlyUnreferencedClocks) {
  ClockArena arena;
  const std::uint64_t a[] = {1, 2};
  const std::uint64_t b[] = {9};
  ClockRef keep = arena.intern(a, 2);
  arena.intern(b, 1);  // ref dropped immediately; only the table holds it.
  ASSERT_EQ(arena.resident_clocks(), 2u);
  EXPECT_EQ(arena.compact(), 1u);  // only the unreferenced entry goes.
  EXPECT_EQ(arena.resident_clocks(), 1u);
  // The survivor is still served from the table.
  EXPECT_EQ(arena.intern(a, 2).get(), keep.get());
}

TEST(ClockArena, ConcurrentInternDedupesAcrossShards) {
  // The intern table is sharded by content hash; racing threads interning
  // the same clocks must still converge on one canonical instance each.
  ClockArena arena;
  constexpr int kThreads = 8;
  constexpr int kClocks = 64;
  std::vector<std::vector<ClockRef>> refs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, &refs, t] {
      for (int i = 0; i < kClocks; ++i) {
        const std::uint64_t c[3] = {static_cast<std::uint64_t>(i),
                                    static_cast<std::uint64_t>(i * 7 + 1),
                                    static_cast<std::uint64_t>(i % 5)};
        refs[static_cast<std::size_t>(t)].push_back(arena.intern(c, 3));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kClocks; ++i) {
      EXPECT_EQ(refs[0][static_cast<std::size_t>(i)].get(),
                refs[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)]
                    .get());
    }
  }
  EXPECT_EQ(arena.resident_clocks(), static_cast<std::size_t>(kClocks));
}

TEST(ClockArena, EmptyClockInterns) {
  ClockArena arena;
  const std::uint64_t zeros[] = {0, 0, 0};
  const ClockRef r1 = arena.intern(zeros, 3);
  const ClockRef r2 = arena.intern(nullptr, 0);
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(r1->size(), 0u);
}

// ---------------------------------------------------------------- FlatMap

TEST(FlatMap, RandomizedOpsMatchStdMap) {
  util::Rng rng(1234);
  FlatMap<std::uint64_t> flat;
  std::map<trace::ObjId, std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const trace::ObjId key = rng.next_below(200);  // dense enough to collide.
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 50) {
      const std::uint64_t v = rng.next_below(1000);
      flat[key] = v;
      ref[key] = v;
    } else if (roll < 75) {
      EXPECT_EQ(flat.erase(key), ref.erase(key) > 0) << "op " << op;
    } else {
      const std::uint64_t* got = flat.find(key);
      auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
  }
  // Full-content check via iteration.
  std::map<trace::ObjId, std::uint64_t> dumped;
  flat.for_each([&dumped](trace::ObjId k, const std::uint64_t& v) {
    dumped[k] = v;
  });
  EXPECT_EQ(dumped, ref);
}

TEST(FlatMap, EraseIfMatchesStdMapSemantics) {
  util::Rng rng(77);
  FlatMap<std::uint64_t> flat;
  std::map<trace::ObjId, std::uint64_t> ref;
  for (int i = 0; i < 500; ++i) {
    const trace::ObjId key = rng.next_below(300);
    const std::uint64_t v = rng.next_below(10);
    flat[key] = v;
    ref[key] = v;
  }
  const std::size_t removed = flat.erase_if(
      [](trace::ObjId, const std::uint64_t& v) { return v % 3 == 0; });
  std::size_t ref_removed = 0;
  for (auto it = ref.begin(); it != ref.end();) {
    if (it->second % 3 == 0) {
      it = ref.erase(it);
      ++ref_removed;
    } else {
      ++it;
    }
  }
  EXPECT_EQ(removed, ref_removed);
  std::map<trace::ObjId, std::uint64_t> dumped;
  flat.for_each([&dumped](trace::ObjId k, const std::uint64_t& v) {
    dumped[k] = v;
  });
  EXPECT_EQ(dumped, ref);
}

// ------------------------------------------------------------------ Stamp

TEST(Stamp, EpochLeqAgainstLaterViewAndWatermark) {
  // Build a real two-thread history through IncrementalHb and verify that a
  // retained epoch answers the ordering questions its full clock would: the
  // lemma of stamp.hpp that frontier records and matcher calls rely on.
  IncrementalHb hb;
  Event w1;
  w1.seq = 1;
  w1.tid = 0;
  w1.kind = EventKind::kMemWrite;
  w1.obj = 100;
  const StampView v1 = hb.advance(w1);
  const trace::Tid tid = v1.tid;
  const std::uint64_t epoch = v1.value;
  const VectorClock c1 = v1.to_clock();

  // Unsynchronized second thread: not ordered.
  Event w2;
  w2.seq = 2;
  w2.tid = 1;
  w2.kind = EventKind::kMemWrite;
  w2.obj = 100;
  const StampView v2 = hb.advance(w2);
  EXPECT_FALSE(epoch <= v2.get(tid));
  EXPECT_FALSE(c1.leq(v2.to_clock()));
  EXPECT_TRUE(VectorClock::concurrent(c1, v2.to_clock()));

  // Synchronize via a message edge: now ordered.
  Event send;
  send.seq = 3;
  send.tid = 0;
  send.kind = EventKind::kMsgSend;
  send.obj = 7000;
  hb.advance(send);
  Event recv;
  recv.seq = 4;
  recv.tid = 1;
  recv.kind = EventKind::kMsgRecv;
  recv.obj = 7000;
  const StampView v4 = hb.advance(recv);
  EXPECT_TRUE(epoch <= v4.get(tid));
  EXPECT_TRUE(c1.leq(v4.to_clock()));
  EXPECT_FALSE(VectorClock::concurrent(c1, v4.to_clock()));

  // Watermark form: epoch vs the meet of both live clocks.
  VectorClock wm;
  ASSERT_TRUE(hb.watermark(&wm));
  EXPECT_EQ(epoch <= wm.get(tid), c1.leq(wm));
  EXPECT_TRUE(epoch <= c1.get(tid));  // its own clock dominates it.
}

}  // namespace
}  // namespace home::detect
