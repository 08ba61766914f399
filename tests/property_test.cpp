// Property-style parameterized suites (TEST_P sweeps over random seeds):
//  * randomized *legal* hybrid programs never produce violations (no false
//    positives from the full pipeline),
//  * randomized programs with one planted violation class are always caught,
//  * the mailbox preserves per-(source, tag) FIFO order under random
//    interleavings,
//  * the lockset check never reports consistently locked traces,
//  * barrier-separated accesses are never concurrent under HB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/apps/app.hpp"
#include "src/apps/toolrun.hpp"
#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"
#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/homp/worksharing.hpp"
#include "src/simmpi/mailbox.hpp"
#include "src/util/rng.hpp"

namespace home {
namespace {

using namespace simmpi;
using spec::ViolationType;

// ------------------------------------------------- randomized legal programs

class LegalProgramProperty : public ::testing::TestWithParam<int> {};

TEST_P(LegalProgramProperty, NoFalsePositives) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  CheckConfig cfg;
  cfg.nranks = 2;
  auto result = check_program(cfg, [seed](Process& p) {
    util::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(p.rank()));
    p.init_thread(ThreadLevel::kMultiple);
    const int rounds = 2 + static_cast<int>(seed % 3);
    for (int round = 0; round < rounds; ++round) {
      homp::parallel(2, [&] {
        const int tnum = homp::thread_num();
        const int peer = 1 - p.rank();
        // Legal pattern 1: per-thread tags.
        const int tag = 100 * round + tnum;
        int v = tnum;
        p.send(&v, 1, Datatype::kInt, peer, tag, kCommWorld, {"legal.send"});
        p.recv(&v, 1, Datatype::kInt, peer, tag, kCommWorld, nullptr,
               {"legal.recv"});
        // Legal pattern 2: shared tag but serialized by a critical section.
        homp::critical("legal", [&] {
          int w = tnum;
          p.send(&w, 1, Datatype::kInt, peer, 999, kCommWorld,
                 {"legal.crit.send"});
          p.recv(&w, 1, Datatype::kInt, peer, 999, kCommWorld, nullptr,
                 {"legal.crit.recv"});
        });
        // Legal pattern 3: master-funneled collective.
        homp::master([&] {
          double x = 1.0, y = 0.0;
          p.allreduce(&x, &y, 1, Datatype::kDouble, ReduceOp::kSum, kCommWorld,
                      {"legal.allreduce"});
        });
        homp::barrier();
      });
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok()) << (result.run.errors.empty()
                                       ? ""
                                       : result.run.errors[0]);
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalProgramProperty, ::testing::Range(0, 8));

// --------------------------------------------- randomized planted violations

class PlantedViolationProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlantedViolationProperty, AlwaysDetected) {
  const int seed = GetParam();
  const auto planted = static_cast<ViolationType>(seed % 6);
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.block_timeout_ms = 1000;
  auto result = check_program(cfg, [planted](Process& p) {
    const int peer = 1 - p.rank();
    if (planted == ViolationType::kInitialization) {
      p.init_thread(ThreadLevel::kFunneled);
    } else {
      p.init_thread(ThreadLevel::kMultiple);
    }
    switch (planted) {
      case ViolationType::kInitialization:
        homp::parallel(2, [&] {
          if (homp::thread_num() == 1) {
            int x = 0, y = 0;
            p.allreduce(&x, &y, 1, Datatype::kInt, ReduceOp::kSum, kCommWorld);
          }
        });
        break;
      case ViolationType::kFinalization:
        homp::parallel(2, [&] {
          if (homp::thread_num() == 1) p.finalize();
        });
        break;
      case ViolationType::kConcurrentRecv:
        homp::parallel(2, [&] {
          int v = 0;
          if (p.rank() == 0) {
            p.send(&v, 1, Datatype::kInt, peer, 7, kCommWorld);
          } else {
            p.recv(&v, 1, Datatype::kInt, peer, 7, kCommWorld);
          }
        });
        break;
      case ViolationType::kConcurrentRequest:
        if (p.rank() == 0) {
          static thread_local int buf;
          Request shared = p.irecv(&buf, 1, Datatype::kInt, 1, 0, kCommWorld);
          homp::parallel(2, [&] { p.wait(shared); });
        } else {
          const int v = 1;
          p.send(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
        }
        break;
      case ViolationType::kProbe:
        if (p.rank() == 0) {
          for (int i = 0; i < 2; ++i) {
            const int v = i;
            p.send(&v, 1, Datatype::kInt, 1, 9, kCommWorld);
          }
        } else {
          homp::parallel(2, [&] {
            int v;
            if (homp::thread_num() == 0) {
              Status st;
              p.probe(0, 9, kCommWorld, &st);
              p.recv(&v, 1, Datatype::kInt, 0, 9, kCommWorld);
            } else {
              p.recv(&v, 1, Datatype::kInt, 0, 9, kCommWorld);
            }
          });
        }
        break;
      case ViolationType::kCollectiveCall:
        homp::parallel(2, [&] { p.barrier(kCommWorld); });
        break;
    }
    if (!p.finalized()) p.finalize();
  });
  EXPECT_TRUE(result.report.has(planted))
      << "planted " << spec::violation_type_name(planted) << "\n"
      << result.report.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllClassesTwice, PlantedViolationProperty,
                         ::testing::Range(0, 12));

// --------------------------------------------------------- mailbox ordering

class MailboxFifoProperty : public ::testing::TestWithParam<int> {};

TEST_P(MailboxFifoProperty, PerTagOrderPreserved) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  Mailbox mailbox;

  // Deliver 40 messages with random tags in {0,1,2}; payload = sequence
  // number within its tag class.
  int next_per_tag[3] = {0, 0, 0};
  for (int i = 0; i < 40; ++i) {
    const int tag = rng.next_int(0, 2);
    Envelope msg;
    msg.src = 0;
    msg.tag = tag;
    msg.comm = 1;
    msg.dt = Datatype::kInt;
    msg.count = 1;
    msg.msg_id = next_message_id();
    msg.payload.resize(sizeof(int));
    const int value = next_per_tag[tag]++;
    std::memcpy(msg.payload.data(), &value, sizeof(int));
    mailbox.deliver(std::move(msg));
  }

  // Receive everything tag by tag (random tag choice each step): each tag
  // class must come out in FIFO order.
  int seen_per_tag[3] = {0, 0, 0};
  for (int i = 0; i < 40; ++i) {
    int tag = rng.next_int(0, 2);
    while (seen_per_tag[tag] >= next_per_tag[tag]) tag = (tag + 1) % 3;
    int value = -1;
    auto recv = std::make_shared<RequestState>(RequestKind::kRecv,
                                               next_request_id());
    recv->match_src = kAnySource;
    recv->match_tag = tag;
    recv->match_comm = 1;
    recv->buf = &value;
    recv->count = 1;
    recv->dt = Datatype::kInt;
    mailbox.post_recv(recv);
    ASSERT_TRUE(recv->done());
    EXPECT_EQ(value, seen_per_tag[tag]++) << "tag " << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MailboxFifoProperty, ::testing::Range(0, 10));

// -------------------------------------------- schedule-independent detection

class ScheduleJitterProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleJitterProperty, HomeDetectionStableAcrossInterleavings) {
  // The paper's core claim vs. Marmot: HOME's lockset+HB analysis reports
  // *potential* violations, so its verdict must not depend on the observed
  // interleaving.  Fuzz the schedule with per-thread jitter and require all
  // six injected classes every time.
  apps::AppConfig cfg = apps::paper_config(apps::AppKind::kBT, 2);
  cfg.jitter_ms_max = 4;
  cfg.jitter_seed = static_cast<std::uint64_t>(GetParam()) + 1;
  const auto result = apps::run_with_tool(apps::Tool::kHome, cfg);
  EXPECT_EQ(apps::count_accuracy(result.report).detected_classes, 6)
      << result.report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleJitterProperty, ::testing::Range(0, 5));

// ---------------------------------------------------- Lockset & HB invariants

class LockedTraceProperty : public ::testing::TestWithParam<int> {};

TEST_P(LockedTraceProperty, ConsistentLockingNeverReports) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 31);
  std::vector<trace::Event> events;
  for (int i = 0; i < 500; ++i) {
    trace::Event e;
    e.seq = static_cast<trace::Seq>(i + 1);
    e.tid = static_cast<trace::Tid>(rng.next_below(6));
    e.kind = rng.next_bool(0.6) ? trace::EventKind::kMemWrite
                                : trace::EventKind::kMemRead;
    e.obj = 50 + rng.next_below(8);
    // Every access holds the variable's own lock (consistent discipline),
    // possibly plus extra unrelated locks.
    e.locks_held = {1000 + e.obj};
    if (rng.next_bool(0.3)) e.locks_held.push_back(2000 + rng.next_below(4));
    std::sort(e.locks_held.begin(), e.locks_held.end());
    events.push_back(std::move(e));
  }
  detect::RaceDetectorConfig cfg;
  cfg.mode = detect::DetectorMode::kLocksetOnly;
  const auto any_concurrent = [](const detect::ConcurrencyReport& report) {
    return std::any_of(report.verdicts().begin(), report.verdicts().end(),
                       [](const auto& v) { return v.second.concurrent; });
  };
  const detect::ConcurrencyReport locked =
      detect::RaceDetector(cfg).analyze(events);
  EXPECT_FALSE(locked.verdicts().empty());
  EXPECT_FALSE(any_concurrent(locked));

  // Control: the same accesses without their locks do race.
  for (trace::Event& e : events) e.locks_held.clear();
  EXPECT_TRUE(any_concurrent(detect::RaceDetector(cfg).analyze(events)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockedTraceProperty, ::testing::Range(0, 8));

class BarrierPhaseProperty : public ::testing::TestWithParam<int> {};

TEST_P(BarrierPhaseProperty, CrossPhaseAccessesAreOrdered) {
  // Random trace: T threads, P phases separated by full barriers; accesses
  // in different phases must be HB-ordered, accesses in the same phase by
  // different threads must be concurrent.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 7);
  const int threads = 2 + static_cast<int>(rng.next_below(3));
  const int phases = 2 + static_cast<int>(rng.next_below(3));

  std::vector<trace::Event> events;
  trace::Seq seq = 1;
  std::vector<std::pair<std::size_t, int>> access_phase;  // (index, phase).
  for (int phase = 0; phase < phases; ++phase) {
    for (int t = 0; t < threads; ++t) {
      const int naccess = 1 + static_cast<int>(rng.next_below(3));
      for (int a = 0; a < naccess; ++a) {
        trace::Event e;
        e.seq = seq++;
        e.tid = t;
        e.kind = trace::EventKind::kMemWrite;
        e.obj = 5;
        access_phase.push_back({events.size(), phase});
        events.push_back(std::move(e));
      }
    }
    for (int t = 0; t < threads; ++t) {
      trace::Event e;
      e.seq = seq++;
      e.tid = t;
      e.kind = trace::EventKind::kBarrier;
      e.obj = static_cast<trace::ObjId>(1000 + phase);
      e.aux = static_cast<std::uint64_t>(threads);
      events.push_back(std::move(e));
    }
  }

  detect::HbIndex hb = detect::HappensBeforeAnalysis().run(events);
  for (const auto& [i, phase_i] : access_phase) {
    for (const auto& [j, phase_j] : access_phase) {
      if (i >= j) continue;
      const auto& ei = hb.events()[i];
      const auto& ej = hb.events()[j];
      if (phase_i != phase_j) {
        EXPECT_TRUE(hb.ordered(i, j))
            << "cross-phase accesses must be ordered (phases " << phase_i
            << " vs " << phase_j << ")";
      } else if (ei.tid != ej.tid) {
        EXPECT_TRUE(hb.concurrent(i, j))
            << "same-phase accesses of different threads must be concurrent";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierPhaseProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace home
