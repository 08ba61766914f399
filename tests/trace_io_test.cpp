// Round-trip tests of trace serialization, the offline analysis entry point,
// and the instrumentation-plan file handoff.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/sast/analysis.hpp"
#include "src/trace/trace_io.hpp"

namespace home {
namespace {

using namespace simmpi;

trace::Event make_event(trace::Tid tid, trace::EventKind kind, trace::ObjId obj) {
  trace::Event e;
  e.tid = tid;
  e.kind = kind;
  e.obj = obj;
  return e;
}

TEST(TraceIo, RoundTripsPlainEvents) {
  trace::TraceLog log;
  log.emit(make_event(1, trace::EventKind::kMemWrite, 42));
  auto locked = make_event(2, trace::EventKind::kLockAcquire, 7);
  locked.locks_held = {7, 9};
  log.emit(std::move(locked));

  std::stringstream buffer;
  trace::write_trace(buffer, log);
  const trace::LoadedTrace loaded = trace::read_trace(buffer);

  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[0].kind, trace::EventKind::kMemWrite);
  EXPECT_EQ(loaded.events[0].obj, 42u);
  EXPECT_EQ(loaded.events[1].locks_held, (std::vector<trace::ObjId>{7, 9}));
  EXPECT_LT(loaded.events[0].seq, loaded.events[1].seq);
}

TEST(TraceIo, RoundTripsMpiCallInfoAndStrings) {
  trace::TraceLog log;
  trace::Event call = make_event(3, trace::EventKind::kMpiCall, 0);
  call.rank = 1;
  trace::MpiCallInfo info;
  info.type = trace::MpiCallType::kRecv;
  info.peer = 0;
  info.tag = 5;
  info.comm = 1;
  info.on_main_thread = true;
  info.provided = 3;
  info.callsite = log.strings().intern("main:10:MPI_Recv with space");
  call.mpi = info;
  log.emit(std::move(call));

  std::stringstream buffer;
  trace::write_trace(buffer, log);
  const trace::LoadedTrace loaded = trace::read_trace(buffer);

  ASSERT_EQ(loaded.events.size(), 1u);
  const auto& e = loaded.events[0];
  ASSERT_TRUE(e.mpi.has_value());
  EXPECT_EQ(e.mpi->type, trace::MpiCallType::kRecv);
  EXPECT_EQ(e.mpi->tag, 5);
  EXPECT_TRUE(e.mpi->on_main_thread);
  EXPECT_EQ(e.mpi->provided, 3);
  EXPECT_EQ(loaded.label(e.mpi->callsite), "main:10:MPI_Recv with space");
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream buffer("not a trace\n");
  EXPECT_THROW(trace::read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfRangeEventKindAndMpiType) {
  // The MPI type indexes the routine table, so the loader refuses a code
  // past either enum.
  const std::string kind = std::to_string(trace::kEventKindCount);
  const std::string call =
      std::to_string(static_cast<int>(trace::EventKind::kMpiCall));
  const std::string last_type = std::to_string(trace::kMpiCallTypeCount - 1);
  const std::string bad_type = std::to_string(trace::kMpiCallTypeCount);
  const std::string good_call =
      "E 1 0 0 " + call + " 0 0 0 M " + last_type + " 0 5 1 0 1 3 0";
  const std::string bad_lines[] = {
      "E 2 0 0 " + kind + " 42 0 0",
      "E 2 0 0 " + call + " 0 0 0 M " + bad_type + " 0 5 1 0 1 3 0",
      "E 2 0 0 " + call + " 0 0 0 M 255 0 5 1 0 1 3 0",
  };
  for (const std::string& bad : bad_lines) {
    SCOPED_TRACE(bad);
    const std::string text =
        "#home-trace v1\n" + good_call + "\n" + bad + "\n";
    std::istringstream strict(text);
    EXPECT_THROW(trace::read_trace(strict), std::runtime_error);
  }
  // The last MPI type still loads.
  std::istringstream ok("#home-trace v1\n" + good_call + "\n");
  const trace::LoadedTrace loaded = trace::read_trace(ok);
  ASSERT_EQ(loaded.events.size(), 1u);
  ASSERT_TRUE(loaded.events[0].mpi.has_value());
  EXPECT_EQ(loaded.events[0].mpi->type, trace::MpiCallType::kCommSplit);
}

TEST(TraceIo, RejectsOutOfRangeThreadIds) {
  // The analyses size per-thread state by tid, so the loader refuses a tid
  // or a fork/join child outside [0, kMaxTid).
  const std::string fork =
      std::to_string(static_cast<int>(trace::EventKind::kThreadFork));
  const std::string join =
      std::to_string(static_cast<int>(trace::EventKind::kThreadJoin));
  const std::string ceiling = std::to_string(trace::kMaxTid);
  const std::string bad_lines[] = {
      "E 2 -1 0 0 42 0 0",
      "E 2 " + ceiling + " 0 0 42 0 0",
      "E 2 100000000 0 0 42 0 0",
      "E 2 0 0 " + fork + " 4294967295 0 0",
      "E 2 0 0 " + join + " " + ceiling + " 0 0",
  };
  for (const std::string& bad : bad_lines) {
    SCOPED_TRACE(bad);
    const std::string text = "#home-trace v1\nE 1 0 0 0 42 0 0\n" + bad + "\n";
    std::istringstream strict(text);
    EXPECT_THROW(trace::read_trace(strict), std::runtime_error);
  }
  // The last tid below the ceiling still loads.
  std::istringstream ok("#home-trace v1\nE 1 " +
                        std::to_string(trace::kMaxTid - 1) + " 0 0 42 0 0\n");
  EXPECT_EQ(trace::read_trace(ok).events.size(), 1u);
}

TEST(TraceIo, OfflineAnalysisMatchesLive) {
  CheckConfig cfg;
  cfg.nranks = 2;
  Session session(cfg.session);
  UniverseConfig ucfg;
  ucfg.nranks = 2;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(2);
  universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      int a = 0;
      const int peer = 1 - p.rank();
      if (p.rank() == 0) {
        p.send(&a, 1, Datatype::kInt, peer, 0, kCommWorld, {"io.send"});
      } else {
        p.recv(&a, 1, Datatype::kInt, peer, 0, kCommWorld, nullptr,
               {"io.recv"});
      }
    });
    p.finalize();
  });
  session.detach(universe);

  const Report live = session.analyze();
  ASSERT_TRUE(live.has(spec::ViolationType::kConcurrentRecv));

  std::stringstream buffer;
  trace::write_trace(buffer, session.log());
  const Report offline = analyze_trace(trace::read_trace(buffer));
  EXPECT_EQ(offline.violations().size(), live.violations().size());
  EXPECT_TRUE(offline.has(spec::ViolationType::kConcurrentRecv));
  // Callsites resolved identically.
  bool found_site = false;
  for (const auto& v : offline.violations()) {
    if (v.callsite1 == "io.recv" || v.callsite2 == "io.recv") found_site = true;
  }
  EXPECT_TRUE(found_site);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/home_trace_test.txt";
  trace::TraceLog log;
  log.emit(make_event(0, trace::EventKind::kBarrier, 5));
  trace::save_trace_file(path, log);
  const auto loaded = trace::load_trace_file(path);
  EXPECT_EQ(loaded.events.size(), 1u);
  std::remove(path.c_str());
}

TEST(PlanIo, RoundTripsLabels) {
  sast::InstrPlan plan;
  plan.instrument = {"main:10:MPI_Recv", "halo:4:MPI_Send"};
  plan.total_calls = 5;
  plan.instrumented_calls = 2;
  plan.filtered_calls = 3;

  const std::string path = testing::TempDir() + "/home_plan_test.txt";
  sast::save_plan_file(path, plan);
  const sast::InstrPlan loaded = sast::load_plan_file(path);
  EXPECT_EQ(loaded.instrument, plan.instrument);
  std::remove(path.c_str());
}

TEST(PlanIo, RoundTripsPruneReasons) {
  sast::InstrPlan plan;
  plan.instrument = {"main:10:MPI_Recv"};
  plan.pruned = {{"main:12:MPI_Send", "critical-guarded(net)"},
                 {"halo:4:MPI_Wait", "barrier-separated"}};
  plan.total_calls = 4;
  plan.instrumented_calls = 1;
  plan.filtered_calls = 1;
  plan.pruned_calls = 2;

  const std::string path = testing::TempDir() + "/home_plan_v2_test.txt";
  sast::save_plan_file(path, plan);
  const sast::InstrPlan loaded = sast::load_plan_file(path);
  EXPECT_EQ(loaded.instrument, plan.instrument);
  EXPECT_EQ(loaded.pruned, plan.pruned);
  EXPECT_EQ(loaded.total_calls, 4u);
  EXPECT_EQ(loaded.instrumented_calls, 1u);
  EXPECT_EQ(loaded.filtered_calls, 1u);
  EXPECT_EQ(loaded.pruned_calls, 2u);
  std::remove(path.c_str());
}

TEST(PlanIo, RejectsLegacyV1Format) {
  // The writer has emitted v2 since plans gained prune reasons; a bare-label
  // v1 file is refused rather than read as a plan without them.
  const std::string path = testing::TempDir() + "/home_plan_v1_test.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("#home-plan v1\nmain:10:MPI_Recv\nhalo:4:MPI_Send\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(sast::load_plan_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PlanIo, LoadRejectsGarbageBodyLine) {
  const std::string path = testing::TempDir() + "/home_plan_badline_test.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("#home-plan v2 total=1 instrumented=1 filtered=0 pruned=0\n"
               "frobnicate main:10:MPI_Recv\n",
               f);
    std::fclose(f);
  }
  EXPECT_THROW(sast::load_plan_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PlanIo, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/home_plan_bad.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("garbage\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(sast::load_plan_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PlanIo, StaticPlanDrivesDynamicFilter) {
  // Static phase on a source whose labels match the runtime callsites...
  const auto analysis = sast::analyze_source(R"(
void work() {
  #pragma omp parallel
  {
    MPI_Recv(&a, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, st);
  }
  MPI_Barrier(MPI_COMM_WORLD);
}
)");
  ASSERT_EQ(analysis.plan.instrument.size(), 1u);

  // ...feeds the dynamic phase's plan filter.
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.session.filter = InstrumentFilter::kPlan;
  cfg.session.plan = analysis.plan.instrument;
  auto result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      int a = 0;
      if (p.rank() == 0) {
        // Unplanned callsite: not instrumented.
        p.send(&a, 1, Datatype::kInt, 1, 0, kCommWorld, {"work:99:MPI_Send"});
      } else {
        p.recv(&a, 1, Datatype::kInt, 0, 0, kCommWorld, nullptr,
               {"work:5:MPI_Recv"});
      }
    });
    p.barrier(kCommWorld, {"work:8:MPI_Barrier"});  // serial: filtered.
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  // Both of rank 1's threads hit the planned recv site -> V3 detected even
  // though everything else was skipped.
  EXPECT_TRUE(result.report.has(spec::ViolationType::kConcurrentRecv));
  EXPECT_GT(result.report.stats().skipped_calls, 0u);
}

}  // namespace
}  // namespace home
