// Equivalence and scaling-infrastructure properties:
//  * the frontier detector's per-variable `concurrent` verdicts equal the
//    independent pairwise oracle's (tests/oracle/) on seeded random traces,
//    in all three DetectorModes, capped and uncapped, serial and parallel,
//    and on traces of long same-class bursts,
//  * the frontier's reported pairs are all racy by the oracle's judgment
//    (soundness of the representatives handed to the matcher),
//  * multi-threaded TraceLog emission loses no events and yields a valid
//    seq total order (strictly increasing, duplicate-free),
//  * StringTable interning is consistent under concurrent use.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/rng.hpp"
#include "tests/oracle/fixtures.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace home::detect {
namespace {

using oracle::PairwiseOracle;
using oracle::random_trace;
using trace::Event;

constexpr DetectorMode kModes[] = {DetectorMode::kHybrid,
                                   DetectorMode::kLocksetOnly,
                                   DetectorMode::kHbOnly};

// ------------------------------------------- frontier == oracle verdicts

class DetectorEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DetectorEquivalence, FrontierMatchesPairwiseVerdicts) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<Event> events = random_trace(seed);
  for (const DetectorMode mode : kModes) {
    const PairwiseOracle oracle(events, oracle::oracle_mode(mode));
    const std::map<trace::ObjId, bool> expected = oracle.verdicts();
    // Sweep the knobs that must not change the verdict: pair cap on/off and
    // serial vs parallel per-variable analysis.
    for (const std::size_t cap : {std::size_t{64}, std::size_t{0}}) {
      for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        RaceDetectorConfig cfg;
        cfg.mode = mode;
        cfg.max_pairs_per_var = cap;
        cfg.analysis_threads = workers;
        EXPECT_EQ(oracle::engine_verdicts(RaceDetector(cfg).analyze(events)),
                  expected)
            << "mode=" << detector_mode_name(mode) << " cap=" << cap
            << " workers=" << workers << " seed=" << seed;
      }
    }
  }
}

// 100+ seeded random traces (x 3 modes x 2 caps x 2 worker counts each).
INSTANTIATE_TEST_SUITE_P(Seeds, DetectorEquivalence, ::testing::Range(0, 104));

TEST(DetectorEquivalence, FrontierMatchesPairwiseOnLongSameClassRuns) {
  // random_trace rarely gives one thread more than kFrontierHistory
  // consecutive accesses of a variable, so its racy accesses stay in the
  // recent-access ring.  Here a few bursts of up to 24 same-class accesses
  // (a lock held per burst at random) make verdicts that hinge on one
  // early access, which survives only as its class maximum.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    util::Rng rng(seed * 7919 + 3);
    std::vector<Event> events;
    trace::Seq seq = 1;
    for (int burst = 0; burst < 6; ++burst) {
      const auto tid = static_cast<trace::Tid>(rng.next_below(3));
      const trace::ObjId var = 100 + rng.next_below(2);
      const bool write = rng.next_bool(0.5);
      std::vector<trace::ObjId> locks;
      if (rng.next_bool(0.5)) locks.push_back(500);
      const int length = 1 + static_cast<int>(rng.next_below(24));
      for (int k = 0; k < length; ++k) {
        Event e;
        e.seq = seq++;
        e.tid = tid;
        e.kind =
            write ? trace::EventKind::kMemWrite : trace::EventKind::kMemRead;
        e.obj = var;
        e.locks_held = locks;
        events.push_back(std::move(e));
      }
    }
    for (const DetectorMode mode : kModes) {
      RaceDetectorConfig cfg;
      cfg.mode = mode;
      EXPECT_EQ(oracle::engine_verdicts(RaceDetector(cfg).analyze(events)),
                PairwiseOracle(events, oracle::oracle_mode(mode)).verdicts())
          << "mode=" << detector_mode_name(mode) << " seed=" << seed;
    }
  }
}

TEST(DetectorEquivalence, FrontierPairsAreGenuinelyRacy) {
  // Soundness of the representatives: the oracle must judge every pair the
  // frontier reports racy (the matcher builds violations out of these).
  const std::vector<Event> events = random_trace(421);
  for (const DetectorMode mode : kModes) {
    RaceDetectorConfig cfg;
    cfg.mode = mode;
    cfg.max_pairs_per_var = 0;
    const ConcurrencyReport report = RaceDetector(cfg).analyze(events);
    const PairwiseOracle oracle(events, oracle::oracle_mode(mode));
    std::size_t pairs = 0;
    for (const auto& [var, verdict] : report.verdicts()) {
      for (const ConcurrentPair& pair : verdict.pairs) {
        ++pairs;
        EXPECT_LT(pair.first, pair.second);
        EXPECT_TRUE(oracle.racy(pair.first, pair.second))
            << "mode=" << detector_mode_name(mode) << " var=" << var;
        EXPECT_EQ(report.hb().events()[pair.first].obj, var);
        EXPECT_EQ(report.hb().events()[pair.second].obj, var);
      }
    }
    EXPECT_GT(pairs, 0u) << "mode=" << detector_mode_name(mode);
  }
}

TEST(DetectorEquivalence, ParallelAnalysisIsDeterministic) {
  // Same trace, different worker counts: byte-identical verdicts and pairs.
  std::vector<Event> events;
  util::Rng rng(99);
  for (int i = 0; i < 6000; ++i) {  // above kParallelAnalysisThreshold.
    Event e;
    e.seq = static_cast<trace::Seq>(i + 1);
    e.tid = static_cast<trace::Tid>(rng.next_below(6));
    e.kind = trace::EventKind::kMemWrite;
    e.obj = 100 + rng.next_below(40);
    if (rng.next_bool(0.5)) e.locks_held = {500};
    events.push_back(std::move(e));
  }
  auto run = [&](std::size_t workers) {
    RaceDetectorConfig cfg;
    cfg.analysis_threads = workers;
    return RaceDetector(cfg).analyze(events);
  };
  const ConcurrencyReport serial = run(1);
  const ConcurrencyReport parallel = run(8);
  EXPECT_EQ(oracle::engine_verdicts(parallel),
            PairwiseOracle(events, oracle::Mode::kHybrid).verdicts());
  ASSERT_EQ(serial.verdicts().size(), parallel.verdicts().size());
  for (const auto& [var, verdict] : serial.verdicts()) {
    const VariableVerdict* other = parallel.verdict(var);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(verdict.concurrent, other->concurrent);
    ASSERT_EQ(verdict.pairs.size(), other->pairs.size());
    for (std::size_t k = 0; k < verdict.pairs.size(); ++k) {
      EXPECT_EQ(verdict.pairs[k].first, other->pairs[k].first);
      EXPECT_EQ(verdict.pairs[k].second, other->pairs[k].second);
    }
  }
}

// ------------------------------------------------- sharded TraceLog stress

TEST(TraceLogStress, ConcurrentEmitLosesNothingAndSeqIsTotalOrder) {
  trace::TraceLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::Event e;
        e.tid = t;
        e.kind = trace::EventKind::kMemWrite;
        e.obj = static_cast<trace::ObjId>(t * kPerThread + i);
        log.emit(std::move(e));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kThreads * kPerThread));
  const std::vector<trace::Event> events = log.sorted_events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));

  // Valid total order: strictly increasing seq (hence duplicate-free).
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LT(events[i - 1].seq, events[i].seq) << "at index " << i;
  }
  // Consistent with each thread's program order, and nothing dropped or
  // duplicated: per thread, the payloads appear exactly once, in order.
  std::vector<std::vector<trace::ObjId>> per_thread(kThreads);
  for (const trace::Event& e : events) {
    per_thread[static_cast<std::size_t>(e.tid)].push_back(e.obj);
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[static_cast<std::size_t>(t)].size(),
              static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(per_thread[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                static_cast<trace::ObjId>(t * kPerThread + i));
    }
  }
}

TEST(TraceLogStress, ClearKeepsShardsUsableAndResetsSeq) {
  trace::TraceLog log;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&log] {
      for (int i = 0; i < 100; ++i) log.emit(trace::Event{});
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(log.size(), 400u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.emit(trace::Event{}), 1u);  // seq restarts.
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLogStress, ConcurrentInternIsConsistent) {
  trace::TraceLog log;
  constexpr int kThreads = 6;
  std::vector<std::vector<std::uint32_t>> ids(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, &ids, t] {
      for (int i = 0; i < 200; ++i) {
        ids[static_cast<std::size_t>(t)].push_back(
            log.strings().intern("label." + std::to_string(i % 50)));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // 50 distinct labels + the empty label = 51 entries; every thread resolved
  // each label to the same id.
  EXPECT_EQ(log.strings().size(), 51u);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 200; ++i) {
      const std::uint32_t id = ids[static_cast<std::size_t>(t)][
          static_cast<std::size_t>(i)];
      EXPECT_EQ(log.strings().lookup(id), "label." + std::to_string(i % 50));
    }
  }
}

}  // namespace
}  // namespace home::detect
