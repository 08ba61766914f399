// The shared-frame clocks of IncrementalHb against the dense oracle.
//
// IncrementalHb keeps every clock as a shared frame plus the thread's own
// component, and takes shortcuts on the edges that leave frames unchanged:
// a barrier arrival on the accumulator's base frame records only its own
// component, and a participant whose frame did not change since it arrived
// takes the completed barrier's frame as it is.  These tests build seeded
// traces around the cases those shortcuts must get right (an event between
// a participant's arrival and the completion, arrivals on different frames
// after a receive or a fork, a reused barrier id, a fork in the middle of a
// phase, a self-join) and check every stamp component, at 1..4 partitions,
// against the independent dense replay of tests/oracle/; and they count the
// frames a barrier builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/incremental.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/rng.hpp"
#include "tests/oracle/fixtures.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace home {
namespace {

using detect::HappensBeforeAnalysis;
using detect::HappensBeforeConfig;
using detect::HbIndex;
using detect::IncrementalHb;
using trace::Event;
using trace::EventKind;

/// What frame_trace puts into a barrier phase.
struct PhaseMix {
  bool between = false;   ///< a participant emits between arrival and completion.
  bool receive = false;   ///< a participant receives a message before arriving.
  bool fork = false;      ///< the main thread forks a helper mid-phase.
  bool self_join = false; ///< a worker joins itself mid-phase.
};

/// A seeded trace of 2..3 ranks of 3..4 threads.  Each rank's main thread
/// forks its team; then every phase is some accesses and messages, then one
/// barrier of the whole team under one of two ids the rank reuses, its
/// arrivals interleaved with the other ranks'.  The phase's mix adds the
/// cases above; messages are sent once, to another rank or the sender's.
std::vector<Event> frame_trace(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  oracle::TraceBuilder tb;
  const int ranks = rng.next_int(2, 3);
  const int threads = rng.next_int(3, 4);
  // Tids: rank r's team is r*8 .. r*8+threads-1; its helper is r*8+7.
  const auto tid_of = [](int rank, int local) {
    return static_cast<trace::Tid>(rank * 8 + local);
  };
  const auto helper_of = [](int rank) {
    return static_cast<trace::Tid>(rank * 8 + 7);
  };
  for (int r = 0; r < ranks; ++r) {
    for (int l = 1; l < threads; ++l) {
      tb.event(tid_of(r, 0), EventKind::kThreadFork,
               static_cast<trace::ObjId>(tid_of(r, l)));
    }
  }
  trace::ObjId next_msg = 70'000;
  const auto access = [&](trace::Tid t) {
    tb.event(t, rng.next_bool(0.5) ? EventKind::kMemWrite : EventKind::kMemRead,
             1000 + static_cast<trace::ObjId>(t % 8) % 3 +
                 10 * static_cast<trace::ObjId>(t / 8));
  };
  const auto message = [&](trace::Tid from, trace::Tid to) {
    tb.event(from, EventKind::kMsgSend, next_msg);
    tb.event(to, EventKind::kMsgRecv, next_msg);
    ++next_msg;
  };
  const int phases = rng.next_int(4, 9);
  for (int phase = 0; phase < phases; ++phase) {
    std::vector<PhaseMix> mix(static_cast<std::size_t>(ranks));
    for (PhaseMix& m : mix) {
      m.between = rng.next_bool(0.5);
      m.receive = rng.next_bool(0.5);
      m.fork = rng.next_bool(0.3);
      m.self_join = rng.next_bool(0.2);
    }
    for (int step = rng.next_int(3, 12); step > 0; --step) {
      const int r = rng.next_int(0, ranks - 1);
      const trace::Tid t = tid_of(r, rng.next_int(0, threads - 1));
      if (rng.next_bool(0.2)) {
        message(t, tid_of(rng.next_int(0, ranks - 1), rng.next_int(0, threads - 1)));
      } else {
        access(t);
      }
    }
    for (int r = 0; r < ranks; ++r) {
      const PhaseMix& m = mix[static_cast<std::size_t>(r)];
      if (m.fork) {
        // The helper works, then its parent joins it: a fork and a join in
        // the middle of the phase, and a restarted clock the next time.
        tb.event(tid_of(r, 0), EventKind::kThreadFork,
                 static_cast<trace::ObjId>(helper_of(r)));
        access(helper_of(r));
        message(helper_of(r), tid_of(r, rng.next_int(1, threads - 1)));
        tb.event(tid_of(r, 0), EventKind::kThreadJoin,
                 static_cast<trace::ObjId>(helper_of(r)));
      }
      if (m.self_join) {
        const trace::Tid w = tid_of(r, rng.next_int(1, threads - 1));
        tb.event(w, EventKind::kThreadJoin, static_cast<trace::ObjId>(w));
        access(w);
      }
    }
    // The barriers: every rank's team arrives, interleaved across ranks.
    std::vector<int> arrived(static_cast<std::size_t>(ranks), 0);
    int left = ranks * threads;
    while (left > 0) {
      const int r = rng.next_int(0, ranks - 1);
      int& k = arrived[static_cast<std::size_t>(r)];
      if (k == threads) continue;
      const PhaseMix& m = mix[static_cast<std::size_t>(r)];
      const trace::Tid t = tid_of(r, (k + phase) % threads);
      if (m.receive && k == 1) {
        // Arrives on another frame than the ones before it.
        message(tid_of((r + 1) % ranks, 0), t);
      }
      const auto id = static_cast<trace::ObjId>(0x3000 + 16 * r + phase % 2);
      tb.event(t, EventKind::kBarrier, id, static_cast<std::uint64_t>(threads));
      if (m.between && k > 0 && k + 1 < threads) {
        // Arrived, not yet released: a bump, a new frame, or a restart.
        switch (rng.next_int(0, 2)) {
          case 0:
            access(t);
            break;
          case 1:
            message(tid_of((r + 1) % ranks, 0), t);
            break;
          default:
            tb.event(t, EventKind::kThreadJoin, static_cast<trace::ObjId>(t));
            break;
        }
      }
      ++k;
      --left;
    }
  }
  for (int r = 0; r < ranks; ++r) {
    for (int l = 1; l < threads; ++l) {
      tb.event(tid_of(r, 0), EventKind::kThreadJoin,
               static_cast<trace::ObjId>(tid_of(r, l)));
    }
  }
  return tb.events();
}

const HappensBeforeConfig kConfigs[] = {
    {},
    {.lock_edges = true},
};

/// Every component of every stamp of `hb` equals the oracle's.
void expect_oracle_stamps(const HbIndex& hb, const oracle::PairwiseOracle& dense,
                          const std::vector<Event>& events) {
  const int tids = oracle::max_tid(events) + 2;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (trace::Tid t = 0; t < tids; ++t) {
      ASSERT_EQ(hb.stamp_get(i, t), dense.stamp(i, t))
          << "event " << i << " (" << trace::event_to_string(events[i])
          << ") tid " << t;
    }
  }
}

std::uint64_t partitions_counted() {
  return obs::Registry::global().counter("detect.hb_partitions").value();
}

TEST(HbFrames, SeededTracesMatchTheDenseReplayAtEveryPartitionCount) {
  obs::set_enabled(true);
  int split = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<Event> events = frame_trace(seed);
    for (const HappensBeforeConfig& cfg : kConfigs) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (cfg.lock_edges ? ", lock edges" : ""));
      const oracle::PairwiseOracle dense(
          events, cfg.lock_edges ? oracle::Mode::kHbOnly : oracle::Mode::kHybrid);
      for (std::size_t parts = 1; parts <= 4; ++parts) {
        SCOPED_TRACE(std::to_string(parts) + " partitions");
        const std::uint64_t before = partitions_counted();
        const HbIndex hb = HappensBeforeAnalysis(cfg).run_partitioned(events, parts);
        split += partitions_counted() - before > 1 ? 1 : 0;
        expect_oracle_stamps(hb, dense, events);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(split, 0);
}

TEST(HbFrames, StreamedStampsMatchTheDenseReplay) {
  // The online analyzer's use: advance() without a recorder.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Event> events = frame_trace(seed);
    const oracle::PairwiseOracle dense(events, oracle::Mode::kHybrid);
    const int tids = oracle::max_tid(events) + 2;
    IncrementalHb inc;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const detect::StampView view = inc.advance(events[i]);
      ASSERT_EQ(view.value, dense.stamp(i, events[i].tid)) << "event " << i;
      for (trace::Tid t = 0; t < tids; ++t) {
        ASSERT_EQ(view.get(t), dense.stamp(i, t)) << "event " << i << " tid " << t;
      }
    }
  }
}

TEST(HbFrames, ABarrierOnOneSharedFrameBuildsOneFrame) {
  constexpr int kParticipants = 16;
  IncrementalHb inc;
  trace::Seq seq = 0;
  const auto feed = [&inc, &seq](trace::Tid t, EventKind kind, trace::ObjId obj,
                                 std::uint64_t aux = 0) {
    Event e;
    e.seq = ++seq;
    e.tid = t;
    e.kind = kind;
    e.obj = obj;
    e.aux = aux;
    return inc.advance(e);
  };
  const auto barrier = [&](trace::ObjId id) {
    for (trace::Tid t = 0; t < kParticipants; ++t) {
      feed(t, EventKind::kBarrier, id, kParticipants);
    }
  };
  // The first barrier gives every participant the one frame it builds.
  barrier(1);
  for (trace::Tid t = 0; t < kParticipants; ++t) {
    feed(t, EventKind::kMemWrite, 500 + static_cast<trace::ObjId>(t));
  }
  // Every arrival is on that frame, and accesses only bump: one frame.
  std::uint64_t before = inc.frames_built();
  barrier(2);
  EXPECT_EQ(inc.frames_built() - before, 1u);
  // The id again: a new instance, still one frame.
  before = inc.frames_built();
  barrier(2);
  EXPECT_EQ(inc.frames_built() - before, 1u);
  // Every participant now shares the frame and knows every arrival.
  for (trace::Tid t = 0; t < kParticipants; ++t) {
    const detect::StampView view =
        feed(t, EventKind::kMemRead, 500 + static_cast<trace::ObjId>(t));
    for (trace::Tid u = 0; u < kParticipants; ++u) {
      EXPECT_EQ(view.get(u), u == t ? 5u : 4u) << "tid " << t << " of " << u;
    }
  }
}

TEST(HbFrames, TheFirstBadTidIsNamedAtEveryPartitionCount) {
  std::vector<Event> events = frame_trace(3);
  ASSERT_GT(events.size(), 40u);
  // Two bad events, in different ranges of a 4-way scan: the earlier names.
  Event& early = events[events.size() / 3];
  Event& late = events[events.size() * 5 / 6];
  early.tid = trace::kMaxTid;
  late.tid = -1;
  const std::string want = "at seq " + std::to_string(early.seq);
  for (std::size_t parts = 1; parts <= 4; ++parts) {
    try {
      HappensBeforeAnalysis().run_partitioned(events, parts);
      ADD_FAILURE() << parts << " partitions: no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).ends_with(want))
          << parts << " partitions: " << e.what();
    }
  }
}

}  // namespace
}  // namespace home
