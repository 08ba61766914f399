// The partitioned happens-before replay against the one-partition replay.
//
// HappensBeforeAnalysis splits a trace into groups of threads that share
// forks/joins, barrier instances and (with lock edges) locks, and lets only
// send-once messages cross groups.  Whatever the partition count, the merged
// index must answer every query as the one-partition replay does: stamps,
// per-thread positions, barrier counts, knowledge frontiers and the order
// of every event's HB sources.  These tests split random traces into 1..4
// partitions and compare the answers query by query, check that the
// grouping really splits (and falls back to one group when an object spans
// the ranks), and that the detector and the matcher give the same answers
// at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spec/matcher.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "tests/oracle/fixtures.hpp"

namespace home {
namespace {

using detect::EdgeKind;
using detect::HappensBeforeAnalysis;
using detect::HappensBeforeConfig;
using detect::HbIndex;
using trace::Event;
using trace::EventKind;

/// An object the generator makes every rank touch, so the ranks cannot be
/// replayed apart.
enum class Shared {
  kNone,
  kLock,            ///< one lock acquired on every rank (links with lock edges).
  kBarrier,         ///< one barrier instance with every rank's main thread.
  kSentTwice,       ///< one message sent on two ranks, received on the rest.
  kRecvBeforeSend,  ///< one message received on every other rank before its send.
};

Shared shared_for(std::uint64_t seed) {
  switch (seed % 8) {
    case 1: return Shared::kLock;
    case 2: return Shared::kBarrier;
    case 3: return Shared::kSentTwice;
    case 4: return Shared::kRecvBeforeSend;
    default: return Shared::kNone;
  }
}

/// Whether `shared` links all ranks under `cfg`.
bool links_ranks(Shared shared, const HappensBeforeConfig& cfg) {
  switch (shared) {
    case Shared::kNone: return false;
    case Shared::kLock: return cfg.lock_edges;
    case Shared::kBarrier: return true;
    case Shared::kSentTwice:
    case Shared::kRecvBeforeSend: return true;
  }
  return false;
}

/// A seeded hybrid trace shaped like a run of 2..4 ranks (`ranks` when
/// given) of 2..4 threads: each rank's main thread forks its workers and
/// joins them at the end, sometimes joining and re-forking one on the way;
/// threads touch rank-local variables, under a rank-local lock or not; a
/// rank's threads meet at barriers; ranks exchange messages, each sent once
/// before it is received; and MPI calls come with their monitored writes.
/// shared_for(seed) adds one object that spans every rank.
void grouped_trace(std::uint64_t seed, oracle::TraceBuilder* tb,
                   int steps = 0, int ranks = 0) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 41);
  if (ranks == 0) ranks = rng.next_int(2, 4);
  const int threads = rng.next_int(2, 4);
  if (steps == 0) steps = rng.next_int(40, 160);
  const Shared shared = shared_for(seed);
  const auto tid_of = [threads](int rank, int local) {
    return static_cast<trace::Tid>(rank * threads + local);
  };
  static const trace::MpiCallType kCalls[] = {
      trace::MpiCallType::kSend, trace::MpiCallType::kRecv,
      trace::MpiCallType::kIrecv, trace::MpiCallType::kWait,
      trace::MpiCallType::kProbe, trace::MpiCallType::kBarrier};

  for (int r = 0; r < ranks; ++r) {
    for (int l = 1; l < threads; ++l) {
      tb->event(tid_of(r, 0), EventKind::kThreadFork,
                static_cast<trace::ObjId>(tid_of(r, l)));
    }
  }
  trace::ObjId next_id = 50'000;
  struct InFlight {
    trace::ObjId msg;
    int rank;
  };
  std::vector<InFlight> in_flight;
  const int shared_step = rng.next_int(0, steps - 1);
  for (int step = 0; step < steps; ++step) {
    if (step == shared_step) {
      const trace::ObjId obj = next_id++;
      switch (shared) {
        case Shared::kNone:
          break;
        case Shared::kLock:
          for (int r = 0; r < ranks; ++r) {
            const trace::Tid t = tid_of(r, rng.next_int(0, threads - 1));
            tb->event(t, EventKind::kLockAcquire, obj);
            tb->event(t, EventKind::kMemWrite, 900 + static_cast<trace::ObjId>(r));
            tb->event(t, EventKind::kLockRelease, obj);
          }
          break;
        case Shared::kBarrier: {
          std::vector<trace::Tid> mains;
          for (int r = 0; r < ranks; ++r) mains.push_back(tid_of(r, 0));
          tb->barrier(mains, obj);
          break;
        }
        case Shared::kSentTwice:
          tb->event(tid_of(0, 0), EventKind::kMsgSend, obj);
          tb->event(tid_of(1, 0), EventKind::kMsgSend, obj);
          for (int r = 2; r < ranks; ++r) {
            tb->event(tid_of(r, 0), EventKind::kMsgRecv, obj);
          }
          break;
        case Shared::kRecvBeforeSend:
          for (int r = 1; r < ranks; ++r) {
            tb->event(tid_of(r, 0), EventKind::kMsgRecv, obj);
          }
          tb->event(tid_of(0, 0), EventKind::kMsgSend, obj);
          break;
      }
    }
    const int rank = rng.next_int(0, ranks - 1);
    const int local = rng.next_int(0, threads - 1);
    const trace::Tid tid = tid_of(rank, local);
    const trace::ObjId var =
        1000 + 10 * static_cast<trace::ObjId>(rank) + rng.next_below(3);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 35) {
      tb->event(tid, rng.next_bool(0.6) ? EventKind::kMemWrite : EventKind::kMemRead,
                var);
    } else if (roll < 50) {
      const trace::ObjId lock = 0x2000 + static_cast<trace::ObjId>(rank);
      tb->event(tid, EventKind::kLockAcquire, lock);
      tb->event(tid, EventKind::kMemWrite, var);
      tb->event(tid, EventKind::kLockRelease, lock);
    } else if (roll < 58) {
      std::vector<trace::Tid> team;
      for (int l = 0; l < threads; ++l) team.push_back(tid_of(rank, l));
      tb->barrier(team, next_id++);
    } else if (roll < 70) {
      tb->event(tid, EventKind::kMsgSend, next_id);
      in_flight.push_back({next_id++, rank});
    } else if (roll < 82) {
      if (!in_flight.empty()) {
        const std::size_t pick = rng.next_below(in_flight.size());
        // Mostly another rank's thread; sometimes a thread of the sender's.
        int to = rng.next_int(0, ranks - 1);
        if (to == in_flight[pick].rank && rng.next_bool(0.7)) to = (to + 1) % ranks;
        tb->event(tid_of(to, rng.next_int(0, threads - 1)), EventKind::kMsgRecv,
                  in_flight[pick].msg);
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (roll < 94) {
      tb->call({.type = kCalls[rng.next_below(std::size(kCalls))],
                .rank = rank,
                .tid = tid,
                .peer = rng.next_int(0, ranks - 1),
                .tag = rng.next_int(0, 1),
                .on_main = local == 0,
                .site = rng.next_bool(0.5) ? "p0" : "p1"});
    } else if (local != 0) {
      // The main thread joins a worker and forks it again: its clock restarts.
      const auto child = static_cast<trace::ObjId>(tid);
      tb->event(tid_of(rank, 0), EventKind::kThreadJoin, child);
      tb->event(tid_of(rank, 0), EventKind::kThreadFork, child);
    }
  }
  for (int r = 0; r < ranks; ++r) {
    for (int l = 1; l < threads; ++l) {
      tb->event(tid_of(r, 0), EventKind::kThreadJoin,
                static_cast<trace::ObjId>(tid_of(r, l)));
    }
  }
}

std::vector<Event> grouped_events(std::uint64_t seed) {
  oracle::TraceBuilder tb;
  grouped_trace(seed, &tb);
  return tb.events();
}

std::vector<Event> random_mpi_events(std::uint64_t seed) {
  oracle::TraceBuilder tb;
  oracle::random_mpi_trace(seed, &tb);
  return tb.events();
}

using Sources = std::vector<std::pair<std::size_t, EdgeKind>>;

Sources sources_of(const HbIndex& hb, std::size_t i) {
  Sources out;
  hb.for_each_source(
      i, [&out](std::size_t s, EdgeKind kind) { out.emplace_back(s, kind); });
  return out;
}

/// Every query of `split` answers as `one` does.
void expect_same_index(const HbIndex& one, const HbIndex& split) {
  const std::size_t n = one.events().size();
  ASSERT_EQ(split.events().size(), n);
  const int tids = oracle::max_tid(one.events()) + 2;  // one past the last.
  EXPECT_EQ(split.dense_stamp_bytes(), one.dense_stamp_bytes());
  for (trace::Tid t = 0; t < tids; ++t) {
    const auto a = one.events_of(t);
    const auto b = split.events_of(t);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "events_of " << t;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(split.events()[i].seq, one.events()[i].seq);
    for (trace::Tid t = 0; t < tids; ++t) {
      ASSERT_EQ(split.stamp_get(i, t), one.stamp_get(i, t))
          << "event " << i << " tid " << t;
      ASSERT_EQ(split.knowledge_frontier(i, t), one.knowledge_frontier(i, t))
          << "event " << i << " tid " << t;
    }
    ASSERT_EQ(split.position_of(i), one.position_of(i)) << "event " << i;
    ASSERT_EQ(split.barriers_before(i), one.barriers_before(i)) << "event " << i;
    ASSERT_EQ(sources_of(split, i), sources_of(one, i)) << "event " << i;
  }
  for (std::size_t i = 0; i < n; i += 7) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(split.ordered(i, j), one.ordered(i, j)) << i << " -> " << j;
    }
  }
}

std::uint64_t partitions_counted() {
  return obs::Registry::global().counter("detect.hb_partitions").value();
}

/// Partitions one replay of `events` used, read off `detect.hb_partitions`.
std::uint64_t replay_partitions(const HappensBeforeConfig& cfg,
                                const std::vector<Event>& events, std::size_t parts,
                                HbIndex* out) {
  const std::uint64_t before = partitions_counted();
  *out = HappensBeforeAnalysis(cfg).run_partitioned(events, parts);
  return partitions_counted() - before;
}

const HappensBeforeConfig kConfigs[] = {
    {},
    {.lock_edges = true},
};

std::string config_name(const HappensBeforeConfig& cfg) {
  return cfg.lock_edges ? "lock edges" : "no lock edges";
}

/// Compares 2..4-partition replays with the one-partition replay over
/// `seeds` traces of `make`, in every configuration; returns how many
/// (trace, configuration) replays really split.
template <class Make>
int compare_splits(Make make, std::uint64_t seeds, int* replays) {
  int split = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::vector<Event> events = make(seed);
    for (const HappensBeforeConfig& cfg : kConfigs) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + config_name(cfg));
      HbIndex one;
      EXPECT_EQ(replay_partitions(cfg, events, 1, &one), 1u);
      std::uint64_t most = 1;
      for (std::size_t parts = 2; parts <= 4; ++parts) {
        HbIndex many;
        const std::uint64_t used = replay_partitions(cfg, events, parts, &many);
        EXPECT_LE(used, parts);
        most = std::max(most, used);
        expect_same_index(one, many);
        if (testing::Test::HasFatalFailure()) return split;
      }
      ++*replays;
      if (most > 1) ++split;
    }
  }
  return split;
}

class HbPartition : public testing::Test {
 protected:
  void SetUp() override { obs::set_enabled(true); }
};

TEST_F(HbPartition, RandomMpiTracesAnswerEveryQueryAsOnePartition) {
  int replays = 0;
  const int split = compare_splits(random_mpi_events, 40, &replays);
  EXPECT_GE(2 * split, replays) << split << " of " << replays << " replays split";
}

TEST_F(HbPartition, RankGroupedTracesAnswerEveryQueryAsOnePartition) {
  int replays = 0;
  const int split = compare_splits(grouped_events, 40, &replays);
  EXPECT_GE(2 * split, replays) << split << " of " << replays << " replays split";
}

TEST_F(HbPartition, AnObjectSpanningTheRanksFallsBackToOneGroup) {
  int linked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Shared shared = shared_for(seed);
    const std::vector<Event> events = grouped_events(seed);
    for (const HappensBeforeConfig& cfg : kConfigs) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + config_name(cfg));
      HbIndex hb;
      const std::uint64_t used = replay_partitions(cfg, events, 4, &hb);
      if (links_ranks(shared, cfg)) {
        EXPECT_EQ(used, 1u);
        ++linked;
      } else if (shared == Shared::kNone) {
        EXPECT_GT(used, 1u);  // forks tie each rank's threads, nothing more.
      }
    }
  }
  EXPECT_GE(linked, 20);
}

TEST_F(HbPartition, AFourRankTraceReplaysInFourPartitions) {
  // The benchmark's shape: ranks whose main threads fork their teams, meet
  // at barriers and exchange send-once messages.
  oracle::TraceBuilder tb;
  grouped_trace(/*seed=*/8, &tb, /*steps=*/3000, /*ranks=*/4);
  ASSERT_EQ(shared_for(8), Shared::kNone);
  const std::vector<Event> events = tb.events();
  ASSERT_GE(events.size(), util::kParallelAnalysisThreshold);
  HbIndex one;
  HbIndex four;
  EXPECT_EQ(replay_partitions({}, events, 1, &one), 1u);
  EXPECT_EQ(replay_partitions({}, events, 4, &four), 4u);
  expect_same_index(one, four);
  // run() takes the same split from its worker count.
  const std::uint64_t before = partitions_counted();
  HappensBeforeAnalysis().run(events, 4);
  EXPECT_EQ(partitions_counted() - before, 4u);
  // Below the threshold, or at one worker, it replays as one partition.
  const std::vector<Event> small(events.begin(), events.begin() + 500);
  HappensBeforeAnalysis().run(small, 4);
  HappensBeforeAnalysis().run(events, 1);
  EXPECT_EQ(partitions_counted() - before, 6u);
}

TEST_F(HbPartition, DetectorAndMatcherAgreeAtEveryWorkerCount) {
  oracle::TraceBuilder tb;
  grouped_trace(/*seed=*/16, &tb, /*steps=*/3000, /*ranks=*/3);
  const std::vector<Event> events = tb.events();
  ASSERT_GE(events.size(), util::kParallelAnalysisThreshold);
  for (const detect::DetectorMode mode :
       {detect::DetectorMode::kHybrid, detect::DetectorMode::kHbOnly,
        detect::DetectorMode::kLocksetOnly}) {
    SCOPED_TRACE(detect::detector_mode_name(mode));
    detect::RaceDetectorConfig cfg;
    cfg.mode = mode;
    cfg.analysis_threads = 1;
    const detect::ConcurrencyReport serial = detect::RaceDetector(cfg).analyze(events);
    const spec::Matcher matcher(&tb.strings());
    const std::set<std::string> keys = oracle::key_set(matcher.match(serial));
    EXPECT_FALSE(keys.empty());
    for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE("analysis_threads " + std::to_string(threads));
      cfg.analysis_threads = threads;
      const detect::ConcurrencyReport report =
          detect::RaceDetector(cfg).analyze(events);
      EXPECT_EQ(oracle::engine_verdicts(report), oracle::engine_verdicts(serial));
      EXPECT_EQ(oracle::report_pairs(report), oracle::report_pairs(serial));
      EXPECT_EQ(oracle::key_set(matcher.match(report)), keys);
    }
  }
}

TEST_F(HbPartition, OutOfRangeThreadIdsAreRefusedAtEveryPartitionCount) {
  std::vector<Event> events = grouped_events(5);
  Event bad = events.back();
  bad.seq += 1;
  bad.tid = trace::kMaxTid;
  events.push_back(bad);
  for (std::size_t parts = 1; parts <= 4; ++parts) {
    EXPECT_THROW(HappensBeforeAnalysis().run_partitioned(events, parts),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace home
