// Micro-benchmarks (google-benchmark) of the primitives the tool's overhead
// is built from: vector-clock algebra, lockset checks, trace emission,
// message matching, collective rendezvous, and full detector passes.
#include <benchmark/benchmark.h>

#include "src/detect/race_detector.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/simmpi/mailbox.hpp"
#include "src/simmpi/universe.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace home;

void BM_VectorClockJoin(benchmark::State& state) {
  detect::VectorClock a, b;
  for (trace::Tid t = 0; t < static_cast<trace::Tid>(state.range(0)); ++t) {
    a.set(t, static_cast<std::uint64_t>(t * 3));
    b.set(t, static_cast<std::uint64_t>(t * 5 % 7));
  }
  for (auto _ : state) {
    detect::VectorClock c = a;
    c.join(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_VectorClockJoin)->Arg(8)->Arg(64)->Arg(256);

void BM_VectorClockLeq(benchmark::State& state) {
  detect::VectorClock a, b;
  for (trace::Tid t = 0; t < static_cast<trace::Tid>(state.range(0)); ++t) {
    a.set(t, static_cast<std::uint64_t>(t));
    b.set(t, static_cast<std::uint64_t>(t + 1));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.leq(b));
}
BENCHMARK(BM_VectorClockLeq)->Arg(8)->Arg(64)->Arg(256);

void BM_LocksetDisjoint(benchmark::State& state) {
  std::vector<trace::ObjId> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(static_cast<trace::ObjId>(2 * i));
    b.push_back(static_cast<trace::ObjId>(2 * i + 1));
  }
  for (auto _ : state) benchmark::DoNotOptimize(trace::locksets_disjoint(a, b));
}
BENCHMARK(BM_LocksetDisjoint)->Arg(1)->Arg(4)->Arg(16);

void BM_TraceEmit(benchmark::State& state) {
  trace::TraceLog log;
  for (auto _ : state) {
    trace::Event e;
    e.tid = 1;
    e.kind = trace::EventKind::kMemWrite;
    e.obj = 42;
    log.emit(std::move(e));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmit);

void BM_MailboxDeliverMatch(benchmark::State& state) {
  simmpi::Mailbox mailbox;
  int payload = 7;
  for (auto _ : state) {
    auto recv = std::make_shared<simmpi::RequestState>(
        simmpi::RequestKind::kRecv, simmpi::next_request_id());
    recv->match_src = 0;
    recv->match_tag = 3;
    recv->match_comm = 1;
    recv->buf = &payload;
    recv->count = 1;
    recv->dt = simmpi::Datatype::kInt;
    mailbox.post_recv(recv);

    simmpi::Envelope msg;
    msg.src = 0;
    msg.tag = 3;
    msg.comm = 1;
    msg.dt = simmpi::Datatype::kInt;
    msg.count = 1;
    msg.msg_id = simmpi::next_message_id();
    msg.payload.resize(sizeof(int));
    mailbox.deliver(std::move(msg));
    benchmark::DoNotOptimize(recv->done());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MailboxDeliverMatch);

void BM_RaceDetectorAnalyze(benchmark::State& state) {
  util::Rng rng(13);
  std::vector<trace::Event> events;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    trace::Event e;
    e.seq = static_cast<trace::Seq>(i + 1);
    e.tid = static_cast<trace::Tid>(rng.next_below(8));
    e.kind = rng.next_bool(0.8) ? trace::EventKind::kMemWrite
                                : trace::EventKind::kBarrier;
    e.obj = e.kind == trace::EventKind::kBarrier ? 900 + rng.next_below(4)
                                                 : 100 + rng.next_below(32);
    if (e.kind == trace::EventKind::kBarrier) e.aux = 8;
    events.push_back(std::move(e));
  }
  detect::RaceDetectorConfig cfg;
  cfg.max_pairs_per_var = 8;
  for (auto _ : state) {
    auto report = detect::RaceDetector(cfg).analyze(events);
    benchmark::DoNotOptimize(report.total_pairs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RaceDetectorAnalyze)->Arg(1000)->Arg(4000);

void BM_PingPong(benchmark::State& state) {
  // Round-trip latency of the substrate itself (2 ranks, blocking calls).
  for (auto _ : state) {
    simmpi::UniverseConfig cfg;
    cfg.nranks = 2;
    simmpi::Universe uni(cfg);
    uni.run([&](simmpi::Process& p) {
      int v = 0;
      for (int i = 0; i < 64; ++i) {
        if (p.rank() == 0) {
          p.send(&v, 1, simmpi::Datatype::kInt, 1, 0, simmpi::kCommWorld);
          p.recv(&v, 1, simmpi::Datatype::kInt, 1, 0, simmpi::kCommWorld);
        } else {
          p.recv(&v, 1, simmpi::Datatype::kInt, 0, 0, simmpi::kCommWorld);
          p.send(&v, 1, simmpi::Datatype::kInt, 0, 0, simmpi::kCommWorld);
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_PingPong)->Unit(benchmark::kMillisecond);

void BM_CollectiveBarrier(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::UniverseConfig cfg;
    cfg.nranks = nranks;
    simmpi::Universe uni(cfg);
    uni.run([&](simmpi::Process& p) {
      for (int i = 0; i < 16; ++i) p.barrier(simmpi::kCommWorld);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          nranks);
}
BENCHMARK(BM_CollectiveBarrier)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
