// End-to-end tests of the whole HOME pipeline: run a hybrid MPI/OpenMP
// program on the substrates, analyze the trace, and match violations.
// Covers the paper's Figure 1 and Figure 2 case studies and each of the six
// violation classes of Section III.A — both the violating and the repaired
// variant of each pattern.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/homp/worksharing.hpp"
#include "src/spec/violations.hpp"

namespace home {
namespace {

using simmpi::Comm;
using simmpi::Datatype;
using simmpi::kAnySource;
using simmpi::kAnyTag;
using simmpi::kCommWorld;
using simmpi::Process;
using simmpi::ReduceOp;
using simmpi::Status;
using simmpi::ThreadLevel;
using spec::ViolationType;

CheckConfig two_by_two() {
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.nthreads = 2;
  cfg.block_timeout_ms = 2000;
  return cfg;
}

// --------------------------------------------------------- paper case studies

TEST(CaseStudy1, PlainInitWithParallelSectionsIsInitializationViolation) {
  // Figure 1: MPI_Init (thread level defaults to SINGLE) followed by
  // omp parallel sections issuing MPI calls.
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init();
    homp::parallel(2, [&] {
      homp::sections({
          [&] {
            if (p.rank() == 0) {
              const int v = 1;
              p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld, {"cs1.send"});
            }
          },
          [&] {
            if (p.rank() == 1) {
              int v = 0;
              p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld, nullptr,
                     {"cs1.recv"});
            }
          },
      });
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kInitialization));
}

TEST(CaseStudy1, InitThreadMultipleRepairsTheProgram) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      homp::sections({
          [&] {
            if (p.rank() == 0) {
              const int v = 1;
              p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld);
            }
          },
          [&] {
            if (p.rank() == 1) {
              int v = 0;
              p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
            }
          },
      });
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kInitialization));
}

TEST(CaseStudy2, SameTagPingPongIsConcurrentRecvViolation) {
  // Figure 2: two threads per rank run the same send/recv (or recv/send)
  // sequence with one shared tag — message-to-thread matching is undefined
  // and the program can deadlock nondeterministically.
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    const int tag = 0;
    homp::parallel(2, [&] {
      int a = homp::thread_num();
      if (p.rank() == 0) {
        p.send(&a, 1, Datatype::kInt, 1, tag, kCommWorld, {"cs2.send0"});
        p.recv(&a, 1, Datatype::kInt, 1, tag, kCommWorld, nullptr,
               {"cs2.recv0"});
      } else {
        p.recv(&a, 1, Datatype::kInt, 0, tag, kCommWorld, nullptr,
               {"cs2.recv1"});
        p.send(&a, 1, Datatype::kInt, 0, tag, kCommWorld, {"cs2.send1"});
      }
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kConcurrentRecv));
}

TEST(CaseStudy2, ThreadIdTagsRepairTheProgram) {
  // The common fix the paper cites: distinguish messages with thread-id tags.
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      const int tag = homp::thread_num();
      int a = tag;
      if (p.rank() == 0) {
        p.send(&a, 1, Datatype::kInt, 1, tag, kCommWorld);
        p.recv(&a, 1, Datatype::kInt, 1, tag, kCommWorld);
      } else {
        p.recv(&a, 1, Datatype::kInt, 0, tag, kCommWorld);
        p.send(&a, 1, Datatype::kInt, 0, tag, kCommWorld);
      }
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kConcurrentRecv));
}

// ------------------------------------------------- V1 Initialization variants

TEST(Initialization, FunneledWithWorkerMpiCallIsViolation) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kFunneled);
    homp::parallel(2, [&] {
      if (homp::thread_num() == 1) {  // off the main thread: forbidden.
        int v = p.rank();
        p.allreduce(&v, &v, 1, Datatype::kInt, ReduceOp::kSum, kCommWorld,
                    {"v1.funneled"});
      }
    });
    p.finalize();
  });
  EXPECT_TRUE(result.report.has(ViolationType::kInitialization));
}

TEST(Initialization, FunneledWithMasterOnlyMpiIsClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kFunneled);
    homp::parallel(2, [&] {
      homp::master([&] {
        int v = p.rank();
        p.allreduce(&v, &v, 1, Datatype::kInt, ReduceOp::kSum, kCommWorld);
      });
      homp::barrier();
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kInitialization));
}

TEST(Initialization, SerializedWithConcurrentCallsIsViolation) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kSerialized);
    homp::parallel(2, [&] {
      // Both threads send concurrently without any mutual exclusion.
      const int v = homp::thread_num();
      const int peer = 1 - p.rank();
      p.send(&v, 1, Datatype::kInt, peer, 100 + homp::thread_num(), kCommWorld,
             {"v1.serialized.send"});
    });
    // Drain.
    for (int i = 0; i < 2; ++i) {
      int v;
      p.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag, kCommWorld);
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kInitialization));
}

TEST(Initialization, SerializedWithCriticalGuardIsClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kSerialized);
    homp::parallel(2, [&] {
      homp::critical("mpi", [&] {
        const int v = homp::thread_num();
        const int peer = 1 - p.rank();
        p.send(&v, 1, Datatype::kInt, peer, 100 + homp::thread_num(),
               kCommWorld);
      });
    });
    for (int i = 0; i < 2; ++i) {
      int v;
      p.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag, kCommWorld);
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kInitialization));
}

// -------------------------------------------------- V2 Finalization variants

TEST(Finalization, OffMainThreadIsViolation) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      if (homp::thread_num() == 1) p.finalize({"v2.finalize"});
    });
  });
  EXPECT_TRUE(result.report.has(ViolationType::kFinalization));
}

TEST(Finalization, ConcurrentWithPendingSendIsViolation) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      if (homp::thread_num() == 1) {
        const int v = 1;
        const int peer = 1 - p.rank();
        p.send(&v, 1, Datatype::kInt, peer, 0, kCommWorld, {"v2.send"});
      } else {
        p.finalize({"v2.finalize2"});
      }
    });
    int v;
    p.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag, kCommWorld);
  });
  EXPECT_TRUE(result.report.has(ViolationType::kFinalization));
}

TEST(Finalization, AfterJoinOnMainThreadIsClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      const int v = homp::thread_num();
      const int peer = 1 - p.rank();
      p.send(&v, 1, Datatype::kInt, peer, homp::thread_num(), kCommWorld);
      int w;
      p.recv(&w, 1, Datatype::kInt, peer, homp::thread_num(), kCommWorld);
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kFinalization));
}

// ----------------------------------------------- V4 ConcurrentRequest variants

TEST(ConcurrentRequest, TwoThreadsWaitSameRequestIsViolation) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      int buf = 0;
      simmpi::Request shared =
          p.irecv(&buf, 1, Datatype::kInt, 1, 0, kCommWorld);
      homp::parallel(2, [&] {
        p.wait(shared, nullptr, {"v4.wait"});  // both threads: forbidden.
      });
    } else {
      const int v = 9;
      p.send(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kConcurrentRequest));
}

TEST(ConcurrentRequest, DistinctRequestsPerThreadIsClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      homp::parallel(2, [&] {
        int buf = 0;
        simmpi::Request mine = p.irecv(&buf, 1, Datatype::kInt, 1,
                                       homp::thread_num(), kCommWorld);
        p.wait(mine);
      });
    } else {
      homp::parallel(2, [&] {
        const int v = 9;
        p.send(&v, 1, Datatype::kInt, 0, homp::thread_num(), kCommWorld);
      });
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kConcurrentRequest));
}

// --------------------------------------------------------- V5 Probe variants

TEST(Probe, ConcurrentProbeAndRecvSameSourceTagIsViolation) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        const int v = i;
        p.send(&v, 1, Datatype::kInt, 1, 5, kCommWorld);
      }
    } else {
      homp::parallel(2, [&] {
        if (homp::thread_num() == 0) {
          Status st;
          p.probe(0, 5, kCommWorld, &st, {"v5.probe"});
          int v;
          p.recv(&v, 1, Datatype::kInt, 0, 5, kCommWorld, nullptr,
                 {"v5.recv.a"});
        } else {
          int v;
          p.recv(&v, 1, Datatype::kInt, 0, 5, kCommWorld, nullptr,
                 {"v5.recv.b"});
        }
      });
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kProbe));
}

TEST(Probe, DistinctTagsPerThreadIsClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      for (int t = 0; t < 2; ++t) {
        const int v = t;
        p.send(&v, 1, Datatype::kInt, 1, t, kCommWorld);
      }
    } else {
      homp::parallel(2, [&] {
        const int tag = homp::thread_num();
        Status st;
        p.probe(0, tag, kCommWorld, &st);
        int v;
        p.recv(&v, 1, Datatype::kInt, 0, tag, kCommWorld);
      });
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kProbe));
}

// ------------------------------------------------ V6 CollectiveCall variants

TEST(CollectiveCall, ConcurrentBarriersOnOneCommIsViolation) {
  // Both threads of each rank enter a barrier on COMM_WORLD concurrently.
  // This can deadlock in a real MPI (and in simmpi, where the second round
  // may never fill up) — HOME still reports it because wrappers log at call
  // entry. The run itself is allowed to fail.
  CheckConfig cfg = two_by_two();
  cfg.block_timeout_ms = 300;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] { p.barrier(kCommWorld, {"v6.barrier"}); });
    p.finalize();
  });
  EXPECT_TRUE(result.report.has(ViolationType::kCollectiveCall));
}

TEST(CollectiveCall, ConcurrentCommDupOnOneCommIsViolation) {
  // Creating per-thread communicators from two threads at once is itself a
  // collective on the parent communicator issued concurrently.
  CheckConfig cfg = two_by_two();
  cfg.block_timeout_ms = 300;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] { p.comm_dup(kCommWorld, {"v6.comm_dup"}); });
    p.finalize();
  });
  EXPECT_TRUE(result.report.has(ViolationType::kCollectiveCall))
      << result.report.to_string();
}

TEST(CollectiveCall, ConcurrentCollectivesFailTheRankInsteadOfCrashing) {
  // Two threads of one rank entering one round fill one slot twice and can
  // complete the round with another member's slot empty; reading it must
  // fail the rank, never the process.  Repeated to hit that interleaving.
  CheckConfig cfg = two_by_two();
  cfg.block_timeout_ms = 100;
  const std::function<void(Process&)> programs[] = {
      [](Process& p) {
        p.init_thread(ThreadLevel::kMultiple);
        homp::parallel(2, [&] { p.comm_dup(kCommWorld, {"v6.comm_dup"}); });
        p.finalize();
      },
      [](Process& p) {
        p.init_thread(ThreadLevel::kMultiple);
        homp::parallel(2, [&] {
          std::vector<double> in(64, 1.0), out(64, 0.0);
          p.allreduce(in.data(), out.data(), 64, Datatype::kDouble,
                      ReduceOp::kSum, kCommWorld, {"v6.allreduce"});
        });
        p.finalize();
      },
  };
  for (const auto& program : programs) {
    for (int rep = 0; rep < 50; ++rep) {
      auto result = check_program(cfg, program);
      ASSERT_TRUE(result.report.has(ViolationType::kCollectiveCall))
          << "rep " << rep << ": " << result.report.to_string();
    }
  }
}

TEST(CollectiveCall, PerThreadCommunicatorsAreClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    Comm comms[2] = {p.comm_dup(kCommWorld), p.comm_dup(kCommWorld)};
    homp::parallel(2, [&] {
      p.barrier(comms[homp::thread_num()]);
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kCollectiveCall));
}

TEST(CollectiveCall, SerializedCollectivesViaCriticalAreClean) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    // One collective per rank, issued from the master only.
    homp::parallel(2, [&] {
      homp::master([&] { p.barrier(kCommWorld); });
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_FALSE(result.report.has(ViolationType::kCollectiveCall));
}

// -------------------------------------------------------- pipeline mechanics

TEST(Pipeline, CleanHybridProgramReportsNothing) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    std::vector<double> field(64, 1.0);
    homp::parallel(2, [&] {
      homp::for_range(0, 64, [&](int i) {
        field[static_cast<std::size_t>(i)] *= 2.0;
      });
      homp::single([&] {
        double sum = 0, total = 0;
        for (double x : field) sum += x;
        p.allreduce(&sum, &total, 1, Datatype::kDouble, ReduceOp::kSum,
                    kCommWorld);
      });
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

TEST(Pipeline, JoinThenForkOrdersSameTagReceives) {
  // Two regions in sequence, each with a worker receiving on one shared tag:
  // the first region's join and the second's fork order the two receives,
  // so the shared tag is fine — no false positive.
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    const int peer = 1 - p.rank();
    if (p.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        const int v = i;
        p.send(&v, 1, Datatype::kInt, peer, 3, kCommWorld);
      }
    } else {
      for (int region = 0; region < 2; ++region) {
        homp::parallel(2, [&] {
          if (homp::thread_num() == 1) {
            int v = 0;
            p.recv(&v, 1, Datatype::kInt, peer, 3, kCommWorld);
          }
        });
      }
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

TEST(Pipeline, SelectiveFilterSkipsSerialCalls) {
  CheckConfig cfg = two_by_two();
  cfg.session.filter = InstrumentFilter::kParallelOnly;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    // Serial-phase collective: must be filtered out.
    p.barrier(kCommWorld);
    p.barrier(kCommWorld);
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.report.stats().skipped_calls, 4u);  // 2 barriers x 2 ranks.
}

TEST(Pipeline, SystematicFilterInstrumentsEverything) {
  CheckConfig cfg = two_by_two();
  cfg.session.filter = InstrumentFilter::kAll;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    p.barrier(kCommWorld);
    p.finalize();
  });
  EXPECT_EQ(result.report.stats().skipped_calls, 0u);
  // Serial barriers from distinct ranks must NOT be reported as violations
  // even under systematic instrumentation (different processes).
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

TEST(Pipeline, PlanFilterHonorsCallsiteList) {
  CheckConfig cfg = two_by_two();
  cfg.session.filter = InstrumentFilter::kPlan;
  cfg.session.plan = {"planned.recv"};
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      if (p.rank() == 0) {
        const int v = homp::thread_num();
        p.send(&v, 1, Datatype::kInt, 1, 9, kCommWorld, {"unplanned.send"});
      } else {
        int v;
        p.recv(&v, 1, Datatype::kInt, 0, 9, kCommWorld, nullptr,
               {"planned.recv"});
      }
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  // Both recvs instrumented -> ConcurrentRecv found even with the narrow plan.
  EXPECT_TRUE(result.report.has(ViolationType::kConcurrentRecv));
  EXPECT_GT(result.report.stats().skipped_calls, 0u);
}

TEST(Pipeline, ConcurrentSendrecvIsConcurrentRecvUnderEveryFilter) {
  // A Sendrecv is reported as the Irecv, Send and Wait it runs, each with
  // the caller's callsite, so a static plan naming the call keeps its
  // receive half.
  for (InstrumentFilter filter :
       {InstrumentFilter::kParallelOnly, InstrumentFilter::kPlan}) {
    CheckConfig cfg = two_by_two();
    cfg.session.filter = filter;
    cfg.session.plan = {"v3.sendrecv"};
    auto result = check_program(cfg, [](Process& p) {
      p.init_thread(ThreadLevel::kMultiple);
      const int peer = 1 - p.rank();
      homp::parallel(2, [&] {
        const int mine = homp::thread_num();
        int theirs = -1;
        p.sendrecv(&mine, 1, Datatype::kInt, peer, 5, &theirs, 1,
                   Datatype::kInt, peer, 5, kCommWorld, nullptr,
                   {"v3.sendrecv"});
      });
      p.finalize();
    });
    EXPECT_TRUE(result.run.ok());
    EXPECT_TRUE(result.report.has(ViolationType::kConcurrentRecv))
        << instrument_filter_name(filter) << ": " << result.report.to_string();
  }
}

TEST(Pipeline, ReportRendersViolations) {
  auto result = check_program(two_by_two(), [](Process& p) {
    p.init();
    homp::parallel(2, [&] { homp::barrier(); });
    p.finalize();
  });
  const std::string text = result.report.to_string();
  EXPECT_NE(text.find("InitializationViolation"), std::string::npos);
}

}  // namespace
}  // namespace home
