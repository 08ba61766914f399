// Scaling bench for the detection pipeline: the frontier engine vs the
// O(k^2) pairwise oracle (tests/oracle/, its own vector-clock replay plus an
// exhaustive pair check) over an events x threads x vars sweep, plus
// multi-threaded TraceLog emission throughput (sharded ingest).
//
// Modes:
//   bench_detect_scaling                  google-benchmark suite, then the
//                                         JSON summary sweep (one JSON object
//                                         per line via bench::JsonRow)
//   bench_detect_scaling --summary-only   skip the google-benchmark suite
//   bench_detect_scaling --smoke          fast functional check of the perf
//                                         path (engine == oracle verdicts,
//                                         sharded emit integrity); ctest runs
//                                         this at build time
//
// Sweep knobs: --max-events (largest events-per-variable point, default
// 16000), --threads, --vars, --reps.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench/fig_common.hpp"
#include "src/detect/race_detector.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/flags.hpp"
#include "src/util/stats.hpp"
#include "tests/oracle/fixtures.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace {

using namespace home;

// Trace builders live in bench/fig_common.hpp (shared with bench_obs).
using bench::phased_trace;
using bench::racy_trace;

detect::RaceDetectorConfig engine_config(std::size_t analysis_threads = 1) {
  detect::RaceDetectorConfig cfg;
  cfg.analysis_threads = analysis_threads;
  return cfg;
}

/// Per-variable verdicts of one detection pass: the engine (`workers` > 0)
/// or the pairwise oracle (`workers` == 0).
std::map<trace::ObjId, bool> detect_verdicts(
    const std::vector<trace::Event>& events, std::size_t workers,
    detect::DetectorMode mode = detect::DetectorMode::kHybrid) {
  if (workers == 0) {
    return oracle::PairwiseOracle(events, oracle::oracle_mode(mode))
        .verdicts();
  }
  detect::RaceDetectorConfig cfg = engine_config(workers);
  cfg.mode = mode;
  return oracle::engine_verdicts(detect::RaceDetector(cfg).analyze(events));
}

// ------------------------------------------------- google-benchmark suite

void BM_DetectPhased(benchmark::State& state, std::size_t workers) {
  const auto events_per_var = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int vars = static_cast<int>(state.range(2));
  const auto events = phased_trace(events_per_var, threads, vars);
  for (auto _ : state) {
    auto verdicts = detect_verdicts(events, workers);
    benchmark::DoNotOptimize(verdicts.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}

void BM_DetectFrontier(benchmark::State& state) { BM_DetectPhased(state, 1); }
void BM_DetectPairwise(benchmark::State& state) { BM_DetectPhased(state, 0); }
// events-per-var x threads x vars.
BENCHMARK(BM_DetectFrontier)
    ->ArgsProduct({{1000, 4000, 16000}, {2, 8}, {4}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DetectPairwise)
    ->ArgsProduct({{1000, 4000}, {2, 8}, {4}})
    ->Unit(benchmark::kMillisecond);

void BM_DetectParallelVars(benchmark::State& state) {
  // Parallel per-variable fan-out, worker count = range(0).  The (serial) HB
  // pass is part of every iteration, so extra workers move only the sweep —
  // see the frontier vs frontier-par rows in the summary.
  const auto events = phased_trace(1500, 4, 16);
  const detect::RaceDetectorConfig cfg =
      engine_config(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto report = detect::RaceDetector(cfg).analyze(events);
    benchmark::DoNotOptimize(report.total_pairs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DetectParallelVars)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

trace::TraceLog* g_emit_log = nullptr;

void BM_ShardedEmitContended(benchmark::State& state) {
  // The BM_TraceEmit contention workload: every benchmark thread hammers one
  // shared log.  With per-thread shards the threads never touch the same
  // mutex on the hot path.
  if (state.thread_index() == 0) g_emit_log = new trace::TraceLog();
  for (auto _ : state) {
    trace::Event e;
    e.tid = state.thread_index();
    e.kind = trace::EventKind::kMemWrite;
    e.obj = 42;
    g_emit_log->emit(std::move(e));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    delete g_emit_log;
    g_emit_log = nullptr;
  }
}
BENCHMARK(BM_ShardedEmitContended)->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// --------------------------------------------------------- JSON summary mode

double measure_detect_seconds(const std::vector<trace::Event>& events,
                              std::size_t workers, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    auto verdicts = detect_verdicts(events, workers);
    benchmark::DoNotOptimize(verdicts.size());
    const double seconds = timer.elapsed_seconds();
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

void run_json_summary(const util::Flags& flags) {
  // Clamp the knobs so degenerate values (e.g. --max-events 0) can't leave
  // the sweep empty or divide by zero in the trace builders.
  const std::size_t max_events = std::max<std::size_t>(
      1000, static_cast<std::size_t>(std::max(0, flags.get_int("max-events",
                                                               16000))));
  const int threads = std::max(1, flags.get_int("threads", 8));
  const int vars = std::max(1, flags.get_int("vars", 4));
  const int reps = std::max(1, flags.get_int("reps", 2));

  std::vector<std::size_t> sweep;
  for (std::size_t n = std::max<std::size_t>(1000, max_events / 16);
       n <= max_events; n *= 4) {
    sweep.push_back(n);
  }

  std::printf("=== detect_scaling: analysis seconds vs events-per-variable "
              "(threads=%d vars=%d) ===\n", threads, vars);
  std::printf("%-22s", "events/var");
  for (std::size_t n : sweep) std::printf("%12zu", n);
  std::printf("\n");

  std::map<std::size_t, double> frontier_s, pairwise_s;
  struct Row {
    const char* name;
    std::size_t workers;  ///< 0 = the pairwise oracle.
  };
  const Row rows[] = {
      {"frontier", 1},
      {"frontier-par", std::max(1u, std::thread::hardware_concurrency())},
      {"pairwise", 0},
  };
  for (const Row& row : rows) {
    std::printf("%-22s", row.name);
    for (std::size_t n : sweep) {
      const auto events = phased_trace(n, threads, vars);
      const double seconds = measure_detect_seconds(events, row.workers, reps);
      if (row.workers == 1) frontier_s[n] = seconds;
      if (row.workers == 0) pairwise_s[n] = seconds;
      std::printf("%12.5f", seconds);
      bench::JsonRow("detect_scaling")
          .field("algo", row.name)
          .field("events_per_var", n)
          .field("threads", threads)
          .field("vars", vars)
          .field("trace_events", events.size())
          .field("seconds", seconds)
          .print(stderr);
    }
    std::printf("\n");
  }

  const std::size_t largest = sweep.back();
  const double speedup = frontier_s[largest] > 0.0
                             ? pairwise_s[largest] / frontier_s[largest]
                             : 0.0;
  std::printf("\nfrontier speedup at events/var=%zu: %.1fx "
              "(pairwise %.4fs vs frontier %.4fs)\n",
              largest, speedup, pairwise_s[largest], frontier_s[largest]);
  bench::JsonRow("detect_scaling")
      .field("algo", "speedup")
      .field("events_per_var", largest)
      .field("threads", threads)
      .field("vars", vars)
      .field("speedup", speedup)
      .print(stderr);
  std::printf("(JSON rows on stderr; expected shape: pairwise grows ~4x per "
              "sweep step squared, frontier near-linearly)\n");
}

// ----------------------------------------------------------------- smoke mode

/// Fast functional check of the perf path, run by ctest at build time: the
/// engine (with two workers) must agree with the pairwise oracle on phased
/// and racy traces in every mode, and the sharded log must survive
/// contended emission intact.
int run_smoke() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "smoke FAIL: %s\n", what);
      ++failures;
    }
  };

  for (const auto& events :
       {phased_trace(400, 4, 6), racy_trace(200, 4, 6, 3),
        racy_trace(300, 3, 5, 7)}) {
    for (const detect::DetectorMode mode :
         {detect::DetectorMode::kHybrid, detect::DetectorMode::kLocksetOnly,
          detect::DetectorMode::kHbOnly}) {
      expect(detect_verdicts(events, 2, mode) ==
                 detect_verdicts(events, 0, mode),
             "engine/oracle verdict mismatch");
    }
  }

  trace::TraceLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::Event e;
        e.kind = trace::EventKind::kMemWrite;
        log.emit(std::move(e));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  expect(log.size() == static_cast<std::size_t>(kThreads * kPerThread),
         "sharded emit lost events");
  const auto events = log.sorted_events();
  expect(events.size() == static_cast<std::size_t>(kThreads * kPerThread),
         "sorted_events size mismatch");
  bool ordered = true;
  for (std::size_t i = 1; i < events.size(); ++i) {
    ordered = ordered && events[i - 1].seq < events[i].seq;
  }
  expect(ordered, "seq is not a strict total order");

  if (failures == 0) std::printf("bench_detect_scaling --smoke: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  if (flags.get_bool("smoke", false)) return run_smoke();
  benchmark::Initialize(&argc, argv);
  if (!flags.get_bool("summary-only", false)) {
    benchmark::RunSpecifiedBenchmarks();
  }
  run_json_summary(flags);
  benchmark::Shutdown();
  return 0;
}
