// Tests for the future-work extensions: the pthreads-style backend, the
// message-race analysis, and the `omp parallel sections` combined directive.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "src/home/check.hpp"
#include "src/home/html_report.hpp"
#include "src/home/session.hpp"
#include "src/homp/pthreads_shim.hpp"
#include "src/homp/runtime.hpp"
#include "src/sast/analysis.hpp"
#include "src/sast/diagnostics.hpp"
#include "src/simmpi/enforcer.hpp"
#include "src/spec/message_race.hpp"
#include "src/util/run_context.hpp"

namespace home {
namespace {

using namespace simmpi;
using spec::ViolationType;

// ------------------------------------------------------------ pthreads shim

TEST(PthreadsShim, RunsAndJoins) {
  std::atomic<int> hits{0};
  {
    homp::Thread worker([&] { hits.fetch_add(1); });
    worker.join();
  }
  EXPECT_EQ(hits.load(), 1);
}

TEST(PthreadsShim, DestructorJoinsUnjoinedThread) {
  std::atomic<int> hits{0};
  { homp::Thread worker([&] { hits.fetch_add(1); }); }
  EXPECT_EQ(hits.load(), 1);
}

TEST(PthreadsShim, EmitsForkJoinEvents) {
  trace::TraceLog log;
  trace::ThreadRegistry registry;
  registry.register_current_thread(trace::kNoTid, 0, true);
  {
    // homp used without a Universe binds its sinks on the calling thread.
    util::RunContext run;
    run.log = &log;
    run.registry = &registry;
    util::ScopedRunContext bind(run);
    homp::Thread worker([] {});
    worker.join();
  }
  int forks = 0, joins = 0;
  for (const auto& e : log.sorted_events()) {
    if (e.kind == trace::EventKind::kThreadFork) ++forks;
    if (e.kind == trace::EventKind::kThreadJoin) ++joins;
  }
  EXPECT_EQ(forks, 1);
  EXPECT_EQ(joins, 1);
}

TEST(PthreadsShim, HybridMpiPthreadsViolationDetected) {
  // The Figure-2 bug written with raw threads instead of OpenMP: two
  // manually spawned threads of rank 1 receive with one shared tag.
  CheckConfig cfg;
  cfg.nranks = 2;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        const int v = i;
        p.send(&v, 1, Datatype::kInt, 1, 3, kCommWorld, {"pt.send"});
      }
    } else {
      auto receiver = [&] {
        int v = 0;
        p.recv(&v, 1, Datatype::kInt, 0, 3, kCommWorld, nullptr, {"pt.recv"});
      };
      homp::Thread t1(receiver);
      homp::Thread t2(receiver);
      t1.join();
      t2.join();
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kConcurrentRecv))
      << result.report.to_string();
}

TEST(PthreadsShim, JoinedThreadsAreOrderedBeforeLaterCalls) {
  // A joined raw thread's MPI call must not race the main thread's later
  // call (the join edge orders them) — no false positive.
  CheckConfig cfg;
  cfg.nranks = 2;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    const int peer = 1 - p.rank();
    if (p.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        const int v = i;
        p.send(&v, 1, Datatype::kInt, peer, 3, kCommWorld);
      }
    } else {
      // Two raw threads, but strictly sequenced: the second is forked only
      // after the first joined, so the join->fork chain orders their receives
      // and the shared tag is fine.
      {
        homp::Thread t1([&] {
          int v;
          p.recv(&v, 1, Datatype::kInt, peer, 3, kCommWorld);
        });
        t1.join();
      }
      homp::Thread t2([&] {
        int v;
        p.recv(&v, 1, Datatype::kInt, peer, 3, kCommWorld);
      });
      t2.join();
    }
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

// ------------------------------------------------------------ message races

TEST(MessageRace, WildcardRecvWithTwoConcurrentSenders) {
  SessionConfig scfg;
  scfg.filter = InstrumentFilter::kAll;  // serial-phase calls matter here.
  Session session(scfg);
  UniverseConfig ucfg;
  ucfg.nranks = 3;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        int v;
        p.recv(&v, 1, Datatype::kInt, kAnySource, 4, kCommWorld, nullptr,
               {"mr.recv"});
      }
    } else {
      const int v = p.rank();
      p.send(&v, 1, Datatype::kInt, 0, 4, kCommWorld, {"mr.send"});
    }
    p.finalize();
  });
  session.detach(universe);

  const auto races = session.message_races();
  ASSERT_FALSE(races.empty());
  EXPECT_EQ(races[0].rank, 0);
  EXPECT_EQ(races[0].sender_ranks, (std::vector<int>{1, 2}));
  EXPECT_NE(races[0].to_string().find("MessageRace"), std::string::npos);
}

TEST(MessageRace, SpecificSourceReceivesAreNotRaces) {
  SessionConfig scfg;
  scfg.filter = InstrumentFilter::kAll;  // serial-phase calls matter here.
  Session session(scfg);
  UniverseConfig ucfg;
  ucfg.nranks = 3;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      for (int src = 1; src <= 2; ++src) {
        int v;
        p.recv(&v, 1, Datatype::kInt, src, 4, kCommWorld);
      }
    } else {
      const int v = p.rank();
      p.send(&v, 1, Datatype::kInt, 0, 4, kCommWorld);
    }
    p.finalize();
  });
  session.detach(universe);
  EXPECT_TRUE(session.message_races().empty());
}

TEST(MessageRace, SingleSenderIsNotARace) {
  SessionConfig scfg;
  scfg.filter = InstrumentFilter::kAll;  // serial-phase calls matter here.
  Session session(scfg);
  UniverseConfig ucfg;
  ucfg.nranks = 2;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      int v;
      p.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag, kCommWorld);
    } else {
      const int v = 7;
      p.send(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
    }
    p.finalize();
  });
  session.detach(universe);
  EXPECT_TRUE(session.message_races().empty());
}

TEST(MessageRace, DifferentTagsDoNotRace) {
  SessionConfig scfg;
  scfg.filter = InstrumentFilter::kAll;  // serial-phase calls matter here.
  Session session(scfg);
  UniverseConfig ucfg;
  ucfg.nranks = 3;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      // Wildcard source but a *specific* tag per receive; only one sender
      // uses each tag.
      for (int tag = 1; tag <= 2; ++tag) {
        int v;
        p.recv(&v, 1, Datatype::kInt, kAnySource, tag, kCommWorld);
      }
    } else {
      const int v = p.rank();
      p.send(&v, 1, Datatype::kInt, 0, p.rank(), kCommWorld);
    }
    p.finalize();
  });
  session.detach(universe);
  EXPECT_TRUE(session.message_races().empty());
}

// -------------------------------------------------- thread-level enforcement

TEST(Enforcer, FunneledOffMainThreadAborts) {
  simmpi::ThreadLevelEnforcer enforcer;
  UniverseConfig ucfg;
  ucfg.nranks = 2;
  trace::ThreadRegistry registry;
  ucfg.registry = &registry;
  Universe universe(ucfg);
  universe.hooks().add(&enforcer);
  universe.run_context().registry = &registry;
  auto result = universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kFunneled);
    homp::parallel(2, [&] {
      if (homp::thread_num() == 1) {
        int x = 0, y = 0;
        p.allreduce(&x, &y, 1, Datatype::kInt, ReduceOp::kSum, kCommWorld);
      }
    });
  });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].find("MPI_THREAD_FUNNELED"), std::string::npos);
}

TEST(Enforcer, MultipleAllowsWorkerCalls) {
  simmpi::ThreadLevelEnforcer enforcer;
  UniverseConfig ucfg;
  ucfg.nranks = 2;
  trace::ThreadRegistry registry;
  ucfg.registry = &registry;
  Universe universe(ucfg);
  universe.hooks().add(&enforcer);
  universe.run_context().registry = &registry;
  auto result = universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      const int tag = homp::thread_num();
      const int peer = 1 - p.rank();
      int v = tag;
      p.send(&v, 1, Datatype::kInt, peer, tag, kCommWorld);
      p.recv(&v, 1, Datatype::kInt, peer, tag, kCommWorld);
    });
    p.finalize();
  });
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GT(enforcer.checked_calls(), 0u);
}

TEST(Enforcer, MainThreadOnlyProgramPassesUnderFunneled) {
  simmpi::ThreadLevelEnforcer enforcer;
  UniverseConfig ucfg;
  ucfg.nranks = 2;
  trace::ThreadRegistry registry;
  ucfg.registry = &registry;
  Universe universe(ucfg);
  universe.hooks().add(&enforcer);
  universe.run_context().registry = &registry;
  auto result = universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kFunneled);
    p.barrier(kCommWorld);
    p.finalize();
  });
  EXPECT_TRUE(result.ok());
}

// ----------------------------------------------------------------- HTML page

TEST(HtmlReport, RendersConfirmedFindings) {
  spec::Violation v;
  v.type = ViolationType::kConcurrentRecv;
  v.callsite1 = "main:10:MPI_Recv";
  v.detail = "two threads receive with source=1 tag=0";
  sast::StaticWarning w;
  w.cls = sast::WarningClass::kConcurrentRecv;
  w.site = "main:10:MPI_Recv";
  const FinalReport merged =
      merge_reports({w}, Report({v}, ReportStats{.trace_events = 42}));

  const std::string html = render_html(merged, ReportStats{.trace_events = 42});
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("ConcurrentRecvViolation"), std::string::npos);
  EXPECT_NE(html.find("confirmed"), std::string::npos);
  EXPECT_NE(html.find("main:10:MPI_Recv"), std::string::npos);
  EXPECT_NE(html.find("trace events: 42"), std::string::npos);
}

TEST(HtmlReport, CleanReportSaysSo) {
  const std::string html = render_html(FinalReport({}), ReportStats{});
  EXPECT_NE(html.find("No thread-safety issues"), std::string::npos);
}

TEST(HtmlReport, EscapesMarkup) {
  spec::Violation v;
  v.type = ViolationType::kProbe;
  v.detail = "a<b & \"c\"";
  const FinalReport merged = merge_reports({}, Report({v}, ReportStats{}));
  const std::string html = render_html(merged, ReportStats{});
  EXPECT_EQ(html.find("a<b"), std::string::npos);
  EXPECT_NE(html.find("a&lt;b &amp; &quot;c&quot;"), std::string::npos);
}

TEST(HtmlReport, WritesFile) {
  const std::string path = testing::TempDir() + "/home_report.html";
  write_html_report(path, FinalReport({}), ReportStats{});
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

// --------------------------------------------- omp parallel sections parsing

TEST(ParallelSections, CombinedDirectiveIsAParallelRegion) {
  const auto analysis = sast::analyze_source(R"(
void f() {
  #pragma omp parallel sections
  {
    #pragma omp section
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
    #pragma omp section
    { MPI_Recv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, st); }
  }
  MPI_Barrier(MPI_COMM_WORLD);
}
)");
  EXPECT_EQ(analysis.plan.instrumented_calls, 2u);
  EXPECT_EQ(analysis.plan.filtered_calls, 1u);
}

}  // namespace
}  // namespace home
