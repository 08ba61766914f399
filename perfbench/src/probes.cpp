#include "perfbench/src/probes.hpp"

#include <algorithm>

#include "src/apps/hidden_race.hpp"
#include "src/detect/race_detector.hpp"
#include "src/explore/sweeper.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/spec/matcher.hpp"
#include "src/trace/wal.hpp"

namespace perfbench {

namespace {

constexpr int kProbeReps = 5;

}  // namespace

Program hidden_race_program() {
  Program prog;
  prog.name = "hidden_race";
  prog.nranks = home::apps::kHiddenRaceRanks;
  prog.nthreads = 2;
  prog.rank_main = [](home::simmpi::Process& p) {
    return static_cast<double>(home::apps::run_hidden_race_rank(p));
  };
  return prog;
}

void probe_fixed_costs(Outcome& out) {
  home::simmpi::UniverseConfig ucfg;
  ucfg.nranks = home::apps::kHiddenRaceRanks;
  const auto noop = [](home::simmpi::Process&) {};
  std::vector<double> universe_us;
  std::vector<double> session_us;
  for (int rep = 0; rep < 40; ++rep) {
    double t0 = now_s();
    {
      home::simmpi::Universe universe(ucfg);
      universe.run(noop);
    }
    universe_us.push_back((now_s() - t0) * 1e6);

    // The session's own calls around an empty program (the universe's
    // construction and run are excluded).
    t0 = now_s();
    home::Session session{home::SessionConfig{}};
    home::simmpi::UniverseConfig scfg = ucfg;
    session.configure(scfg);
    double session_s = now_s() - t0;
    home::simmpi::Universe universe(scfg);
    t0 = now_s();
    session.attach(universe);
    session_s += now_s() - t0;
    universe.run(noop);
    t0 = now_s();
    session.detach(universe);
    const home::Report report = session.analyze();
    session_s += now_s() - t0;
    session_us.push_back(session_s * 1e6);
  }
  out.set("simmpi.universe_fixed_us", median(universe_us), "us");
  out.set("home.session_fixed_us", median(session_us), "us");
}

home::trace::LoadedTrace probe_execution(const Program& prog, Outcome& out) {
  std::vector<double> base_ms, overhead_ms, sorted_ms;
  home::trace::LoadedTrace last;
  home::ReportStats stats;
  const auto inspect = [&](home::Session& session) {
    const double t0 = now_s();
    const std::vector<home::trace::Event> sorted = session.log().sorted_events();
    sorted_ms.push_back((now_s() - t0) * 1e3);
    last = snapshot_trace(session.log());
  };
  // Paired runs in alternating order: the overhead is the median of the
  // per-pair differences, so a slow stretch hits both sides of a pair.
  for (int rep = 0; rep < 8 * kProbeReps; ++rep) {
    BaseRun base;
    HomeRun run;
    if (rep % 2 == 0) {
      base = run_base(prog);
      run = run_home(prog, inspect);
    } else {
      run = run_home(prog, inspect);
      base = run_base(prog);
    }
    base_ms.push_back(base.exec_s * 1e3);
    overhead_ms.push_back((run.exec_s - base.exec_s) * 1e3);
    stats = run.report.stats();
  }
  const double overhead = median(overhead_ms);
  const double events = size_d(stats.trace_events);
  out.set("simmpi.base_run_ms", median(base_ms), "ms");
  out.set("home.instrumented_calls", size_d(stats.instrumented_calls), "count");
  out.set("home.skipped_calls", size_d(stats.skipped_calls), "count");
  out.set("home.exec_overhead_ms", overhead, "ms");
  out.set("trace.events_per_run", events, "count");
  out.set("trace.emit_ns_per_event", events > 0 ? overhead * 1e6 / events : 0.0,
          "ns");
  out.set("trace.sorted_events_ms", median(sorted_ms), "ms");
  return last;
}

void probe_wal_load(const home::trace::LoadedTrace& trace,
                    const std::string& dir, Outcome& out) {
  const std::string path = dir + "/probe.wal";
  write_wal(trace, path);
  std::uint64_t bytes = 0;
  file_hash(path, &bytes);
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double t0 = now_s();
    home::trace::WalSalvage salvage;
    const home::trace::LoadedTrace loaded =
        home::trace::salvage_wal_file(path, &salvage);
    ms.push_back((now_s() - t0) * 1e3);
  }
  const double events = size_d(trace.events.size());
  out.set("trace.wal_load_ms", median(ms), "ms");
  out.set("trace.load_ns_per_event",
          events > 0 ? median(ms) * 1e6 / events : 0.0, "ns");
  out.set("trace.file_bytes", static_cast<double>(bytes), "bytes");
}

void probe_text_load(const home::trace::LoadedTrace& trace,
                     const std::string& dir, Outcome& out) {
  const std::string path = dir + "/probe.trace";
  write_text(trace, path);
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double t0 = now_s();
    const home::trace::LoadedTrace loaded = home::trace::load_trace_file(path);
    ms.push_back((now_s() - t0) * 1e3);
  }
  out.set("trace.text_load_ms", median(ms), "ms");
}

void probe_detect(const home::trace::LoadedTrace& trace, Outcome& out) {
  const home::detect::RaceDetectorConfig dcfg =
      home::make_detector_config(home::SessionConfig{});
  home::detect::RaceDetectorConfig serial = dcfg;
  serial.analysis_threads = 1;
  home::trace::StringTable strings;
  for (const std::string& s : trace.strings) strings.intern(s);

  std::vector<double> hb_ms, sweep_ms, serial_ms, match_ms;
  DetectCounts counts;
  home::spec::MatcherStats mstats;
  home::obs::set_enabled(true);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    home::obs::reset_spans();
    const home::detect::ConcurrencyReport report =
        home::detect::RaceDetector(dcfg).analyze(trace.events);
    hb_ms.push_back(program_span_ms("detect.hb"));
    sweep_ms.push_back(program_span_ms("detect.sweep"));
    home::obs::reset_spans();
    home::detect::RaceDetector(serial).analyze(trace.events);
    serial_ms.push_back(program_span_ms("detect.sweep"));
    home::spec::Matcher matcher(&strings);
    const double t0 = now_s();
    matcher.match(report);
    match_ms.push_back((now_s() - t0) * 1e3);
    mstats = matcher.stats();
    counts = count_verdicts(report);
  }
  home::obs::set_enabled(false);
  home::obs::reset_spans();
  const double events = size_d(trace.events.size());
  out.set("detect.hb_ms", median(hb_ms), "ms");
  out.set("detect.hb_ns_per_event",
          events > 0 ? median(hb_ms) * 1e6 / events : 0.0, "ns");
  out.set("detect.sweep_ms", median(sweep_ms), "ms");
  out.set("detect.sweep_serial_ms", median(serial_ms), "ms");
  out.set("detect.vars", counts.vars, "count");
  out.set("detect.pairs_checked", counts.pairs_checked, "count");
  out.set("detect.concurrent_pairs", counts.concurrent_pairs, "count");
  out.set("spec.match_ms", median(match_ms), "ms");
  out.set("spec.call_pairs", size_d(mstats.call_pairs), "count");
  out.set("spec.violations", size_d(mstats.violations), "count");
}

void probe_online(const home::trace::LoadedTrace& trace,
                  const home::trace::ThreadRegistry* registry, Outcome& out) {
  const home::online::OnlineConfig cfg = stream_config();
  home::trace::StringTable strings;
  for (const std::string& s : trace.strings) strings.intern(s);

  std::vector<double> on_event_ns, blocked_ns, drain_ms, resident, clock_bytes,
      retired;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    home::online::OnlineAnalyzer analyzer(cfg, &strings, registry);
    const double t0 = now_s();
    for (const home::trace::Event& e : trace.events) analyzer.on_event(e);
    const double t1 = now_s();
    analyzer.finish();
    drain_ms.push_back((now_s() - t1) * 1e3);
    on_event_ns.push_back((t1 - t0) * 1e9 /
                          std::max<double>(1.0, size_d(trace.events.size())));
    const home::online::OnlineStats stats = analyzer.stats();
    blocked_ns.push_back(static_cast<double>(stats.blocked_ns));
    resident.push_back(size_d(stats.peak_resident));
    clock_bytes.push_back(size_d(stats.peak_clock_bytes));
    retired.push_back(size_d(stats.records_retired));
  }
  out.set("online.on_event_ns", median(on_event_ns), "ns");
  out.set("online.blocked_ns", median(blocked_ns), "ns");
  out.set("online.drain_ms", median(drain_ms), "ms");
  out.set("online.peak_resident", median(resident), "count");
  out.set("online.peak_clock_bytes", median(clock_bytes), "bytes");
  out.set("online.records_retired", median(retired), "count");
}

void probe_explore(const Program& prog, Outcome& out) {
  home::explore::SweepConfig cfg;
  cfg.nranks = prog.nranks;
  cfg.nthreads = prog.nthreads;
  cfg.schedules = 8;
  cfg.strategy = home::explore::StrategyKind::kWildcardReorder;
  cfg.run_baseline = true;
  const auto main = [&prog](home::simmpi::Process& p) { prog.rank_main(p); };
  std::vector<double> ms;
  home::explore::SweepResult result;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    result = home::explore::Sweeper(cfg).run(main);
    ms.push_back((now_s() - t0) * 1e3 / std::max(1, result.schedules_run));
  }
  const double runs = std::max(1, result.schedules_run);
  out.set("explore.ms_per_schedule", median(ms), "ms");
  out.set("explore.hook_hits_per_schedule",
          static_cast<double>(result.hook_hits) / runs, "count");
  out.set("explore.orderings_per_schedule",
          size_d(result.orderings.size()) / runs, "ratio");
  out.set("explore.pruned", size_d(result.pruned.size()), "count");
}

}  // namespace perfbench
