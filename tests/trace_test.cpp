#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <thread>
#include <vector>

#include "src/trace/event.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"

namespace home::trace {
namespace {

TEST(Event, LocksetDisjointness) {
  EXPECT_TRUE(locksets_disjoint({}, {}));
  EXPECT_TRUE(locksets_disjoint({1, 3}, {2, 4}));
  EXPECT_FALSE(locksets_disjoint({1, 3}, {3, 4}));
  EXPECT_TRUE(locksets_disjoint({5}, {}));
}

TEST(Event, KindAndCallNames) {
  EXPECT_STREQ(event_kind_name(EventKind::kMemWrite), "MemWrite");
  EXPECT_STREQ(routine_of(MpiCallType::kRecv).name, "MPI_Recv");
  EXPECT_STREQ(routine_of(MpiCallType::kInitThread).name, "MPI_Init_thread");
}

TEST(Event, Classifiers) {
  EXPECT_TRUE(routine_of(MpiCallType::kAllreduce).collective());
  EXPECT_FALSE(routine_of(MpiCallType::kSend).collective());
  EXPECT_TRUE(routine_of(MpiCallType::kIprobe).probes());
  EXPECT_TRUE(routine_of(MpiCallType::kIrecv).receives());
  EXPECT_TRUE(routine_of(MpiCallType::kTest).completes_request());
  EXPECT_FALSE(routine_of(MpiCallType::kRecv).completes_request());
}

TEST(RoutineTable, LooksUpByTypeAndBySourceName) {
  for (std::size_t i = 0; i < kMpiCallTypeCount; ++i) {
    const auto type = static_cast<MpiCallType>(i);
    EXPECT_EQ(routine_of(type).type, type);
    EXPECT_EQ(find_routine(routine_of(type).name), &routine_of(type));
  }
  EXPECT_EQ(find_routine("HMPI_Recv"), &routine_of(MpiCallType::kRecv));
  EXPECT_EQ(find_routine("MPI_Allgather")->type, MpiCallType::kGather);
  EXPECT_EQ(find_routine("MPI_Ssend")->type, MpiCallType::kSend);
  EXPECT_EQ(find_routine("MPI_Comm_rank"), nullptr);
  EXPECT_EQ(find_routine("HMPI_"), nullptr);
}

TEST(RoutineTable, RowsCarryWhatTheAnalyzersRead) {
  const MpiRoutine& sendrecv = *find_routine("MPI_Sendrecv");
  EXPECT_TRUE(sendrecv.sends() && sendrecv.receives());
  EXPECT_EQ(sendrecv.args.source, 8);
  EXPECT_EQ(sendrecv.args.recv_tag, 9);
  EXPECT_EQ(sendrecv.args.comm, 10);
  for (const char* name : {"MPI_Comm_dup", "MPI_Comm_split"}) {
    const MpiRoutine& row = *find_routine(name);
    EXPECT_TRUE(row.collective()) << name;
    EXPECT_EQ(row.args.comm, 0) << name;
    EXPECT_GT(static_cast<int>(row.type), static_cast<int>(MpiCallType::kOther));
  }
  // Write order is part of the trace: collectivetmp before commtmp.
  const auto vars = routine_of(MpiCallType::kCommDup).vars();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], MonitoredVar::kCollectiveTmp);
  EXPECT_EQ(vars[1], MonitoredVar::kCommTmp);
  int lifecycle = 0;
  for (const MpiRoutine& row : kMpiRoutines) lifecycle += row.lifecycle();
  EXPECT_EQ(lifecycle, 3);
}

TEST(Event, ToStringMentionsCallArgs) {
  Event e;
  e.tid = 3;
  e.rank = 1;
  e.kind = EventKind::kMpiCall;
  MpiCallInfo info;
  info.type = MpiCallType::kRecv;
  info.peer = 0;
  info.tag = 7;
  e.mpi = info;
  const std::string s = event_to_string(e);
  EXPECT_NE(s.find("MPI_Recv"), std::string::npos);
  EXPECT_NE(s.find("tag=7"), std::string::npos);
}

TEST(StringTable, InternIsIdempotent) {
  StringTable table;
  const auto a = table.intern("halo.send");
  const auto b = table.intern("halo.send");
  const auto c = table.intern("halo.recv");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.lookup(a), "halo.send");
  EXPECT_EQ(table.lookup(0), "");
}

TEST(TraceLog, StampsMonotonicSeq) {
  TraceLog log;
  Event e;
  const Seq s1 = log.emit(e);
  const Seq s2 = log.emit(e);
  EXPECT_LT(s1, s2);
  EXPECT_EQ(log.size(), 2u);
}

TEST(TraceLog, SortedEventsAreOrdered) {
  TraceLog log;
  Event e;
  for (int i = 0; i < 100; ++i) log.emit(e);
  auto events = log.sorted_events();
  ASSERT_EQ(events.size(), 100u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(TraceLog, ConcurrentEmitIsSafeAndComplete) {
  TraceLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        Event e;
        e.kind = EventKind::kMemWrite;
        log.emit(e);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // All seq stamps distinct.
  auto events = log.sorted_events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_NE(events[i - 1].seq, events[i].seq);
  }
}

TEST(TraceLog, ClearResets) {
  TraceLog log;
  log.emit(Event{});
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(ThreadRegistry, RegistersAndQueriesCurrentThread) {
  ThreadRegistry registry;
  const Tid tid = registry.register_current_thread(kNoTid, 3, true);
  EXPECT_EQ(registry.current_tid(), tid);
  EXPECT_EQ(registry.current_rank(), 3);
  EXPECT_TRUE(registry.current_is_rank_main());
  registry.reset();
  EXPECT_EQ(registry.current_tid(), kNoTid);
}

TEST(ThreadRegistry, AFreshRegistryAtAReusedAddressStartsUnbound) {
  // Successive runs on one thread build their registries in the same stack
  // slot: the new one must not inherit the dead one's binding.
  alignas(ThreadRegistry) unsigned char slot[sizeof(ThreadRegistry)];
  auto* first = new (slot) ThreadRegistry();
  first->register_current_thread(kNoTid, 0, true);
  ASSERT_EQ(first->current_tid(), 0);
  first->~ThreadRegistry();
  auto* second = new (slot) ThreadRegistry();
  EXPECT_EQ(second->current_tid(), kNoTid);
  second->~ThreadRegistry();
}

TEST(ThreadRegistry, PreRegistrationAndBinding) {
  ThreadRegistry registry;
  registry.register_current_thread(kNoTid, 0, true);
  const Tid child = registry.register_thread(0, 0, false);
  EXPECT_EQ(child, 1);
  std::thread worker([&registry, child] {
    registry.bind_current_thread(child);
    EXPECT_EQ(registry.current_tid(), child);
    EXPECT_EQ(registry.current_rank(), 0);
    EXPECT_FALSE(registry.current_is_rank_main());
  });
  worker.join();
  EXPECT_EQ(registry.thread_count(), 2);
}

TEST(ThreadRegistry, InfoOutOfRangeIsEmpty) {
  ThreadRegistry registry;
  EXPECT_EQ(registry.info(42).tid, kNoTid);
}

TEST(ThreadRegistry, DistinctTidsAcrossThreads) {
  ThreadRegistry registry;
  std::vector<Tid> tids(4, kNoTid);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&registry, &tids, i] {
      tids[static_cast<std::size_t>(i)] =
          registry.register_current_thread(kNoTid, i, false);
    });
  }
  for (auto& t : threads) t.join();
  std::sort(tids.begin(), tids.end());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tids[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace home::trace
