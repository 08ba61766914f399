// Clock-engine bench: epoch stamps + interned clocks.
//
// Four experiments, each one JSON row per sweep point (stdout and
// --json-out, default BENCH_clock.json):
//   clock_micro     join/leq/== ns/op on vector clocks at 2..128 threads
//   clock_sweep     end-to-end frontier detection over the barrier-phased
//                   race-free trace (the NPB long-clean-trace shape) at 64
//                   threads, with the shared HB build timed out
//   clock_resident  the streamed HB replay's resident clock-bytes at 64
//                   threads on both the clean and the racy trace
//   clock_hb_index  interned vs dense post-mortem HbIndex stamp bytes
//
// Gates, in both modes: the engine's verdicts equal the pairwise oracle's
// (tests/oracle/) on the clean and the racy trace, and interned HbIndex
// stamps are >= 2x smaller than dense ones.
//
// Modes:
//   bench_clock            full sweep
//   bench_clock --smoke    the same gates at CI-friendly size; ctest runs this
//
// Knobs: --threads (default 64), --vars, --phases, --reps, --json-out.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench/fig_common.hpp"
#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/util/flags.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace {

using namespace home;

// --------------------------------------------------------------- micro ops

struct MicroTimes {
  double join_ns = 0;
  double leq_ns = 0;
  double eq_ns = 0;
  std::uint64_t sink = 0;  ///< defeats dead-code elimination; reported.
};

MicroTimes micro(int threads, int reps) {
  util::Rng rng(static_cast<std::uint64_t>(threads) * 977 + 3);
  detect::VectorClock a;
  detect::VectorClock b;
  for (int t = 0; t < threads; ++t) {
    a.set(static_cast<trace::Tid>(t), rng.next_below(1000) + 1);
    b.set(static_cast<trace::Tid>(t), rng.next_below(1000) + 1);
  }
  MicroTimes out;
  util::Stopwatch timer;
  for (int r = 0; r < reps; ++r) {
    detect::VectorClock j = a;
    j.join(b);
    out.sink += j.get(static_cast<trace::Tid>(r % threads));
  }
  out.join_ns = timer.elapsed_seconds() * 1e9 / reps;
  timer.reset();
  for (int r = 0; r < reps; ++r) {
    out.sink += a.leq(b) ? 1 : 0;
    out.sink += b.leq(a) ? 1 : 0;
  }
  out.leq_ns = timer.elapsed_seconds() * 1e9 / (2 * reps);
  timer.reset();
  for (int r = 0; r < reps; ++r) out.sink += (a == b) ? 1 : 0;
  out.eq_ns = timer.elapsed_seconds() * 1e9 / reps;
  return out;
}

// -------------------------------------------- end-to-end frontier sweep

struct SweepRun {
  double seconds = 0;
  std::size_t pairs_checked = 0;
  std::size_t epoch_hits = 0;
  std::map<trace::ObjId, bool> verdicts;
};

SweepRun run_sweep(const std::vector<trace::Event>& events) {
  detect::RaceDetectorConfig cfg;
  cfg.analysis_threads = 1;  // serial: measure the engine, not the pool.
  util::Stopwatch timer;
  const detect::ConcurrencyReport report =
      detect::RaceDetector(cfg).analyze(events);
  SweepRun run;
  run.seconds = timer.elapsed_seconds();
  for (const auto& [var, verdict] : report.verdicts()) {
    run.pairs_checked += verdict.pairs_checked;
    run.epoch_hits += verdict.epoch_hits;
    run.verdicts[var] = verdict.concurrent;
  }
  return run;
}

/// The engine's hybrid-mode verdicts equal the pairwise oracle's.
bool matches_oracle(const std::vector<trace::Event>& events) {
  return run_sweep(events).verdicts ==
         oracle::PairwiseOracle(events, oracle::Mode::kHybrid).verdicts();
}

// ---------------------------------------- streamed resident clock-bytes

struct ResidentRun {
  std::size_t peak_hb_clock_bytes = 0;
  std::size_t racy_pairs = 0;
};

ResidentRun run_resident(const std::vector<trace::Event>& events, int threads,
                         std::size_t retire_every) {
  detect::IncrementalHb hb;
  for (int t = 0; t < threads; ++t) hb.declare_thread(static_cast<trace::Tid>(t));
  detect::IncrementalFrontier frontier(detect::RaceDetectorConfig{});
  ResidentRun run;
  std::vector<detect::IncrementalFrontier::PairHit> hits;
  std::size_t since_retire = 0;
  std::size_t since_sample = 0;
  for (const trace::Event& e : events) {
    const detect::StampView stamp = hb.advance(e);
    if (e.is_access()) {
      auto rec = std::make_shared<detect::OnlineAccess>();
      rec->seq = e.seq;
      rec->tid = e.tid;
      rec->write = e.is_write();
      rec->locks = e.locks_held;
      hits.clear();
      frontier.on_access(e.obj, std::move(rec), stamp, &hits);
      run.racy_pairs += hits.size();
    }
    if (++since_sample >= 64) {  // sampling cadence mirrors OnlineAnalyzer.
      since_sample = 0;
      run.peak_hb_clock_bytes =
          std::max(run.peak_hb_clock_bytes, hb.resident_clock_bytes());
    }
    if (retire_every != 0 && ++since_retire >= retire_every) {
      since_retire = 0;
      detect::VectorClock wm;
      if (hb.watermark(&wm)) {
        frontier.retire(wm);
        hb.retire(wm);
      }
    }
  }
  // Catch the final state too (short traces may never hit the cadence).
  run.peak_hb_clock_bytes =
      std::max(run.peak_hb_clock_bytes, hb.resident_clock_bytes());
  return run;
}

// ------------------------------------------------------------------ main

struct Output {
  std::FILE* json = nullptr;  ///< BENCH_clock.json (always written).
  bool echo = false;          ///< also echo rows to stdout (full mode).

  void emit(const bench::JsonRow& row) const {
    if (json != nullptr) row.print(json);
    if (echo) row.print();
  }
};

void micro_rows(const Output& out, int reps) {
  for (int threads = 2; threads <= 128; threads *= 2) {
    const MicroTimes t = micro(threads, reps);
    bench::JsonRow row("clock_micro");
    row.field("threads", threads)
        .field("join_ns", t.join_ns)
        .field("leq_ns", t.leq_ns)
        .field("eq_ns", t.eq_ns)
        .field("sink", t.sink);
    out.emit(row);
  }
}

/// Emits the sweep + resident rows and returns whether the engine's verdicts
/// match the oracle's on both traces.
bool engine_rows(const Output& out, int threads, int vars, std::size_t phases,
                 int reps) {
  const std::vector<trace::Event> clean =
      bench::phased_trace(phases, threads, vars);
  const std::vector<trace::Event> racy =
      bench::racy_trace(phases, threads, vars, /*seed=*/11);

  SweepRun best;
  best.seconds = 1e100;
  // The HB index build is timed separately so the row isolates the sweep.
  // analyze() under kHybrid uses the default HB config.
  double hb_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    const SweepRun run = run_sweep(clean);
    if (run.seconds < best.seconds) best = run;
    util::Stopwatch timer;
    const detect::HbIndex hb =
        detect::HappensBeforeAnalysis().run(std::vector<trace::Event>(clean));
    hb_seconds = std::min(hb_seconds, timer.elapsed_seconds());
  }
  const bool clean_ok = matches_oracle(clean);
  const bool racy_ok = matches_oracle(racy);
  {
    bench::JsonRow row("clock_sweep");
    row.field("threads", threads)
        .field("vars", vars)
        .field("events", clean.size())
        .field("seconds", best.seconds)
        .field("hb_seconds", hb_seconds)
        .field("sweep_seconds", std::max(best.seconds - hb_seconds, 0.0))
        .field("pairs_checked", best.pairs_checked)
        .field("epoch_hits", best.epoch_hits)
        .field("verdicts_match_oracle", clean_ok && racy_ok ? 1 : 0);
    out.emit(row);
  }
  if (!clean_ok || !racy_ok) {
    std::fprintf(stderr, "bench_clock: verdicts differ from the oracle on the "
                         "%s trace\n", clean_ok ? "racy" : "clean");
  }

  // Resident clock bytes of the streamed HB replay (thread and sync
  // clocks); frontier records keep 16-byte epochs and pin none.
  const ResidentRun clean_run = run_resident(clean, threads, 256);
  {
    bench::JsonRow row("clock_resident");
    row.field("workload", "phased")
        .field("threads", threads)
        .field("events", clean.size())
        .field("hb_clock_bytes", clean_run.peak_hb_clock_bytes);
    out.emit(row);
  }
  const ResidentRun racy_run = run_resident(racy, threads, 256);
  {
    bench::JsonRow row("clock_resident");
    row.field("workload", "racy")
        .field("threads", threads)
        .field("events", racy.size())
        .field("hb_clock_bytes", racy_run.peak_hb_clock_bytes)
        .field("racy_pairs", racy_run.racy_pairs);
    out.emit(row);
  }
  return clean_ok && racy_ok;
}

/// Post-mortem HbIndex stamp store (ROADMAP clock follow-on (c)): frames
/// (stamps with the own component zeroed) are interned in the ClockArena, so
/// a thread's event run between sync edges shares one allocation.  The
/// workload has compute-bound phases (many accesses per thread per barrier),
/// the regime real programs live in; hb_dense_stamp_bytes is what the same
/// stamps cost as private full clocks.  Returns dense/interned.
double hb_index_row(const Output& out, int threads) {
  const std::vector<trace::Event> events =
      bench::phased_trace(/*events_per_var=*/16, threads,
                          /*vars=*/threads * 32);
  const detect::HbIndex hb =
      detect::HappensBeforeAnalysis().run(std::vector<trace::Event>(events));
  const std::size_t interned = hb.stamp_bytes();
  const std::size_t dense = hb.dense_stamp_bytes();
  const double ratio = interned > 0 ? static_cast<double>(dense) /
                                          static_cast<double>(interned)
                                    : 0.0;
  bench::JsonRow row("clock_hb_index");
  row.field("threads", threads)
      .field("events", events.size())
      .field("hb_dense_stamp_bytes", dense)
      .field("hb_clock_bytes", interned)
      .field("bytes_ratio", ratio);
  out.emit(row);
  return ratio;
}

/// The gates at one size (`hb_threads` sizes the HbIndex row); returns the
/// process status.
int run_gates(const Output& out, int threads, int vars, std::size_t phases,
              int reps, int hb_threads) {
  int status = engine_rows(out, threads, vars, phases, reps) ? 0 : 1;
  const double hb_ratio = hb_index_row(out, hb_threads);
  if (hb_ratio < 2.0) {
    std::fprintf(stderr,
                 "bench_clock: interned HbIndex stamps not 2x smaller than "
                 "dense (%.2fx)\n",
                 hb_ratio);
    status = 1;
  }
  if (status == 0) {
    std::printf("bench_clock: OK (verdicts match the oracle, hb index %.1fx "
                "smaller interned)\n",
                hb_ratio);
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const std::string json_path = flags.get("json-out", "BENCH_clock.json");
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "bench_clock: cannot write %s\n", json_path.c_str());
    return 1;
  }
  Output out;
  out.json = json;

  int status = 0;
  if (flags.get_bool("smoke", false)) {
    // Small but still 64-wide: the acceptance shape at CI-friendly size.
    status = run_gates(out, /*threads=*/64, /*vars=*/8, /*phases=*/64,
                       /*reps=*/3, /*hb_threads=*/16);
  } else {
    out.echo = true;
    micro_rows(out, flags.get_int("reps", 200000));
    const int threads = flags.get_int("threads", 64);
    status = run_gates(out, threads, flags.get_int("vars", 8),
                       static_cast<std::size_t>(flags.get_int("phases", 256)),
                       flags.get_int("reps-sweep", 3), threads);
  }
  std::fclose(json);
  return status;
}
