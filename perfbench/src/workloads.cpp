#include "perfbench/src/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "perfbench/src/probes.hpp"
#include "perfbench/src/runs.hpp"
#include "perfbench/src/synth.hpp"
#include "perfbench/src/tracer.hpp"
#include "src/apps/app.hpp"
#include "src/apps/hidden_race.hpp"
#include "src/detect/race_detector.hpp"
#include "src/explore/sweeper.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/trace/wal.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using home::detect::ConcurrencyReport;
using home::detect::RaceDetector;
using home::detect::RaceDetectorConfig;
using home::obs::Span;

/// Run op(i, traced) back to back for opt.seconds (and at least min_ops).
/// In a traced run every odd op is traced: obs records the benchmark's and
/// the program's spans for it, and is off for the untraced ops in between.
template <typename Op>
std::uint64_t closed_loop(const Options& opt, std::uint64_t min_ops, Op&& op) {
  home::obs::reset_spans();
  const double start = now_s();
  std::uint64_t i = 0;
  for (; i < min_ops || now_s() - start < opt.seconds; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    home::obs::set_enabled(traced);
    op(i, traced);
    if (traced) tracer().drain(i + 1);
  }
  home::obs::set_enabled(false);
  return i;
}

/// Median wall time of kSetupReps runs of a workload's set-up: enough
/// repeats that a burst of interference on a shared machine rarely reaches
/// the median.
constexpr int kSetupReps = 11;

template <typename Setup>
double timed_setup(Setup&& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    setup();
    seconds.push_back(now_s() - t0);
  }
  return median(seconds);
}

RaceDetectorConfig default_detector() {
  return home::make_detector_config(home::SessionConfig{});
}

RaceDetectorConfig serial_detector() {
  RaceDetectorConfig cfg = default_detector();
  cfg.analysis_threads = 1;
  return cfg;
}

/// The end-to-end row every workload reports (see README.md for what each
/// metric means on each workload).  Every figure is a median over the run's
/// ops, and every ratio a median of per-op ratios between two calls made back
/// to back: a stall from another tenant of a shared machine hits both sides
/// of a pair, and a median ignores the minority of ops it hits.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> checked_ms;
  std::vector<double> overhead;  ///< per-op checked / unchecked.
  std::vector<double> report_ms;
  std::vector<double> events_per_s;
  std::vector<double> schedules_per_s;
};

void report_end_to_end(const EndToEnd& e2e, Outcome& out) {
  out.set("setup_s", e2e.setup_s, "s");
  out.set("checked_run_ms_p50", median(e2e.checked_ms), "ms");
  out.set("overhead_ratio", median(e2e.overhead), "ratio");
  out.set("report_ms_p50", median(e2e.report_ms), "ms");
  out.set("analysis_events_per_s", median(e2e.events_per_s), "1/s");
  out.set("schedules_per_s", median(e2e.schedules_per_s), "1/s");
  // The tail is printed, not bounded: one stalled run moves it severalfold.
  out.note("checked_run_ms_p90", std::to_string(percentile(e2e.checked_ms, 90.0)));
  out.note("samples.checked_run_ms", std::to_string(e2e.checked_ms.size()));
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

double report_trace_overhead(const std::vector<double>& traced_ms,
                             const std::vector<double>& untraced_ms,
                             Outcome& out) {
  const double untraced = median(untraced_ms);
  const double ratio = untraced > 0.0 ? median(traced_ms) / untraced : 0.0;
  out.set("obs.trace_overhead_ratio", ratio, "ratio");
  out.note("samples.traced_ops", std::to_string(traced_ms.size()));
  return ratio;
}

/// Median of a[i] - b[i] over ops that recorded both.
double paired_difference(const std::vector<double>& a,
                         const std::vector<double>& b) {
  std::vector<double> d;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    d.push_back(a[i] - b[i]);
  }
  return median(d);
}

void note_probe_subject(const Program& prog,
                        const home::trace::LoadedTrace& trace, Outcome& out) {
  out.note("probe.program", prog.name);
  out.note("probe.trace_events", std::to_string(trace.events.size()));
}

std::string join(const std::vector<std::string>& items) {
  std::string s;
  for (const std::string& item : items) s += (s.empty() ? "" : ",") + item;
  return s;
}

bool same_keys(const std::vector<std::string>& got,
               const std::set<std::string>& want) {
  return std::set<std::string>(got.begin(), got.end()) == want;
}

// ------------------------------------------------------------------ npb_mz

Program npb_program(home::apps::AppKind kind) {
  const home::apps::AppConfig cfg = home::apps::clean_config(kind, 2, 2);
  Program prog;
  prog.name = home::apps::app_kind_name(kind);
  prog.nranks = cfg.nranks;
  prog.nthreads = cfg.nthreads;
  prog.rank_main = [cfg](home::simmpi::Process& p) {
    return home::apps::run_app_rank(cfg, p);
  };
  return prog;
}

std::string npb_failure(const BaseRun& base, const HomeRun& checked) {
  if (!base.run.ok()) return "Base run failed";
  if (!checked.run.ok()) return "HOME run failed";
  if (base.values != checked.values) return "HOME residual differs from Base";
  if (!checked.report.clean()) {
    return "report not clean: " + checked.report.to_string();
  }
  return "";
}

}  // namespace

Outcome run_npb_mz(const Options& opt) {
  Outcome out;
  std::vector<Program> programs;
  EndToEnd e2e;
  e2e.setup_s = timed_setup([&] {
    programs.clear();
    for (home::apps::AppKind kind : {home::apps::AppKind::kLU,
                                     home::apps::AppKind::kBT,
                                     home::apps::AppKind::kSP}) {
      programs.push_back(npb_program(kind));
    }
    for (int warm = 0; warm < 4; ++warm) {  // warm-up pairs per config
      for (const Program& prog : programs) {
        run_base(prog);
        run_home(prog);
      }
    }
  });

  home::util::Rng rng(mix_seed(opt.seed, 1));
  std::size_t order[3] = {0, 1, 2};
  std::vector<double> exec_ratio[3];  // per config: HOME / Base execute.
  std::vector<double> traced_ms, untraced_ms;
  // Traced ops only: the layer counts.
  std::vector<double> instrumented, skipped, run_events, vars, pairs_checked, pairs,
      call_pairs, violations;
  home::trace::LoadedTrace subject;  // an LU run's trace, for the probes.

  closed_loop(opt, 30, [&](std::uint64_t i, bool traced) {
    if (i % 3 == 0) {  // every config once per block, in seeded order
      for (std::size_t j = 2; j > 0; --j) {
        std::swap(order[j], order[rng.next_below(j + 1)]);
      }
    }
    const std::size_t k = order[i % 3];
    const Program& prog = programs[k];
    auto inspect = [&](home::Session& session) {
      std::vector<home::trace::Event> sorted;
      {
        Span span("TraceLog::sorted_events");
        sorted = session.log().sorted_events();
      }
      // The single-threaded detection baseline on the same trace.
      std::optional<ConcurrencyReport> report;
      {
        Span span("RaceDetector::analyze(serial)");
        report.emplace(RaceDetector(serial_detector()).analyze(sorted));
      }
      home::spec::Matcher matcher(&session.log().strings());
      matcher.match(*report);
      const DetectCounts counts = count_verdicts(*report);
      vars.push_back(counts.vars);
      pairs_checked.push_back(counts.pairs_checked);
      pairs.push_back(counts.concurrent_pairs);
      call_pairs.push_back(size_d(matcher.stats().call_pairs));
      violations.push_back(size_d(matcher.stats().violations));
      if (k == 0) subject = snapshot_trace(session.log());
    };
    std::function<void(home::Session&)> hook;
    if (traced) hook = inspect;
    BaseRun base;
    HomeRun checked;
    if (rng.next_bool()) {
      base = run_base(prog);
      checked = run_home(prog, hook);
    } else {
      checked = run_home(prog, hook);
      base = run_base(prog);
    }
    const std::string why = npb_failure(base, checked);
    out.check(why.empty(), prog.name + " op " + std::to_string(i) + ": " + why);

    const home::ReportStats& stats = checked.report.stats();
    exec_ratio[k].push_back(checked.exec_s / base.exec_s);
    e2e.checked_ms.push_back(checked.total_s * 1e3);
    e2e.report_ms.push_back(checked.analyze_s * 1e3);
    e2e.events_per_s.push_back(size_d(stats.trace_events) / checked.analyze_s);
    e2e.schedules_per_s.push_back(1.0 / checked.total_s);
    (traced ? traced_ms : untraced_ms).push_back(checked.total_s * 1e3);
    if (traced) {
      instrumented.push_back(size_d(stats.instrumented_calls));
      skipped.push_back(size_d(stats.skipped_calls));
      run_events.push_back(size_d(stats.trace_events));
    }
  });

  if (!opt.trace) {
    report_end_to_end(e2e, out);
    // Fig. 7 as a ratio, per config, then the geometric mean over LU/BT/SP
    // (a median over the mix would jump between the configs' modes).
    double log_sum = 0.0;
    for (int k = 0; k < 3; ++k) log_sum += std::log(median(exec_ratio[k]));
    out.set("overhead_ratio", std::exp(log_sum / 3.0), "ratio");
    return out;
  }

  const Tracer& t = tracer();
  const std::vector<double> base_ms = t.per_op_ms("Universe::run(base)");
  const double overhead =
      paired_difference(t.per_op_ms("Universe::run(home)"), base_ms);
  const double per_run = mean(run_events);
  const double hb = median(t.per_op_ms("detect.hb", "Session::analyze"));
  out.set("simmpi.base_run_ms", median(base_ms), "ms");
  out.set("home.instrumented_calls", mean(instrumented), "count");
  out.set("home.skipped_calls", mean(skipped), "count");
  out.set("home.exec_overhead_ms", overhead, "ms");
  out.set("trace.events_per_run", per_run, "count");
  out.set("trace.emit_ns_per_event", per_run > 0 ? overhead * 1e6 / per_run : 0,
          "ns");
  out.set("trace.sorted_events_ms",
          median(t.per_op_ms("TraceLog::sorted_events")), "ms");
  out.set("detect.hb_ms", hb, "ms");
  out.set("detect.hb_ns_per_event", per_run > 0 ? hb * 1e6 / per_run : 0, "ns");
  out.set("detect.sweep_ms",
          median(t.per_op_ms("detect.sweep", "Session::analyze")), "ms");
  out.set("detect.sweep_serial_ms",
          median(t.per_op_ms("detect.sweep", "RaceDetector::analyze(serial)")),
          "ms");
  out.set("detect.vars", mean(vars), "count");
  out.set("detect.pairs_checked", mean(pairs_checked), "count");
  out.set("detect.concurrent_pairs", mean(pairs), "count");
  out.set("spec.match_ms", median(t.per_op_ms("spec.match", "Session::analyze")),
          "ms");
  out.set("spec.call_pairs", mean(call_pairs), "count");
  out.set("spec.violations", mean(violations), "count");
  report_trace_overhead(traced_ms, untraced_ms, out);

  // Layers the checked runs do not exercise: probed on LU and its trace.
  probe_fixed_costs(out);
  probe_wal_load(subject, opt.out_dir, out);
  probe_text_load(subject, opt.out_dir, out);
  probe_online(subject, nullptr, out);
  probe_explore(programs[0], out);
  note_probe_subject(programs[0], subject, out);
  return out;
}

// ----------------------------------------------------------- trace_posthoc

namespace {

/// Slack on the trace_posthoc accounting check for the work outside the
/// four layers (string interning, building the Report) and for comparing a
/// sum of medians with a median.
constexpr double kAccountingSlack = 1.1;

/// Online = post-mortem: streamed once, outside the timing, the trace gives
/// the planted keys as well.
void check_stream(const SynthTrace& synth,
                  const home::trace::ThreadRegistry& registry, Outcome& out) {
  home::trace::StringTable strings;
  for (const std::string& str : synth.trace.strings) strings.intern(str);
  home::online::OnlineAnalyzer analyzer(stream_config(), &strings, &registry);
  for (const home::trace::Event& e : synth.trace.events) analyzer.on_event(e);
  analyzer.finish();
  const std::vector<std::string> keys = keys_of(analyzer.violations());
  out.check(analyzer.stats().events_processed == synth.trace.events.size() &&
                same_keys(keys, synth.planted_keys),
            "streamed keys " + join(keys) + " differ from the planted set");
}

bool all_equal(const std::vector<std::uint64_t>& values) {
  return std::all_of(values.begin(), values.end(),
                     [&](std::uint64_t v) { return v == values.front(); });
}

}  // namespace

Outcome run_trace_posthoc(const Options& opt) {
  Outcome out;
  const std::string wal_path =
      opt.out_dir + "/posthoc-seed" + std::to_string(opt.seed) + ".wal";
  SynthTrace synth;
  std::vector<std::uint64_t> hashes, file_hashes;
  std::uint64_t file_bytes = 0;
  EndToEnd e2e;
  e2e.setup_s = timed_setup([&] {
    synth = make_synth_trace(opt.seed);
    hashes.push_back(reference_pass(synth.trace.events));
    const bool written = write_wal(synth.trace, wal_path);
    file_hashes.push_back(written ? file_hash(wal_path, &file_bytes) : 0);
  });
  // Generation is seeded: every set-up gave the same trace and the same
  // file bytes, and the next seed gives another trace.
  out.check(all_equal(hashes), "same seed gave different traces");
  out.check(file_hashes.front() != 0 && all_equal(file_hashes),
            "WAL file not byte-identical across set-ups");
  out.check(reference_pass(make_synth_trace(opt.seed + 1).trace.events) !=
                hashes.front(),
            "seed and seed+1 gave the same trace");
  out.check(synth.planted_keys.size() >= 6, "fewer than six planted keys");
  out.note("trace.hash", hex64(hashes.front()));
  out.note("trace.events", std::to_string(synth.trace.events.size()));
  out.note("trace.threads",
           std::to_string(synth.ranks * synth.threads_per_rank));
  out.note("trace.planted_keys",
           join(std::vector<std::string>(synth.planted_keys.begin(),
                                         synth.planted_keys.end())));
  out.note("trace.wal_hash", hex64(file_hashes.front()));
  out.note("trace.wal_bytes", std::to_string(file_bytes));

  const RaceDetectorConfig dcfg = default_detector();
  std::vector<double> traced_ms, untraced_ms;
  std::uint64_t sink = 0;
  std::vector<double> vars, checked, pairs, call_pairs, violations;

  closed_loop(opt, 20, [&](std::uint64_t i, bool traced) {
    const double t0 = now_s();
    home::trace::WalSalvage salvage;
    home::trace::LoadedTrace loaded;
    {
      Span span("salvage_wal_file");
      loaded = home::trace::salvage_wal_file(wal_path, &salvage);
    }
    const std::size_t n = loaded.events.size();
    const double t1 = now_s();
    std::optional<ConcurrencyReport> concurrency;
    {
      Span span("RaceDetector::analyze");
      concurrency.emplace(RaceDetector(dcfg).analyze(std::move(loaded.events)));
    }
    home::trace::StringTable strings;
    home::spec::Matcher matcher(&strings);
    std::vector<home::spec::Violation> found;
    {
      Span span("Matcher::match");
      for (const std::string& s : loaded.strings) strings.intern(s);
      found = matcher.match(*concurrency);
    }
    std::optional<home::Report> report;
    {
      Span span("Report");
      home::ReportStats stats;
      stats.trace_events = n;
      for (const auto& [var, verdict] : concurrency->verdicts()) {
        if (!home::spec::is_monitored_var(var)) continue;
        ++stats.monitored_variables;
        if (verdict.concurrent) ++stats.concurrent_variables;
        stats.concurrent_pairs += verdict.pairs.size();
      }
      report.emplace(std::move(found), stats);
    }
    const double t2 = now_s();

    const std::vector<std::string> keys = keys_of(report->violations());
    out.check(salvage.clean() && n == synth.trace.events.size() &&
                  same_keys(keys, synth.planted_keys),
              "posthoc op " + std::to_string(i) + ": keys " + join(keys));
    e2e.checked_ms.push_back((t2 - t0) * 1e3);
    e2e.report_ms.push_back((t2 - t0) * 1e3);
    e2e.events_per_s.push_back(size_d(n) / (t2 - t1));
    e2e.schedules_per_s.push_back(1.0 / (t2 - t0));
    (traced ? traced_ms : untraced_ms).push_back((t2 - t0) * 1e3);

    const double r0 = now_s();
    sink += reference_pass(synth.trace.events);
    e2e.overhead.push_back((t2 - t0) / (now_s() - r0));

    if (traced) {
      {
        Span span("RaceDetector::analyze(serial)");
        RaceDetector(serial_detector()).analyze(concurrency->hb().events());
      }
      const DetectCounts counts = count_verdicts(*concurrency);
      vars.push_back(counts.vars);
      checked.push_back(counts.pairs_checked);
      pairs.push_back(counts.concurrent_pairs);
      call_pairs.push_back(size_d(matcher.stats().call_pairs));
      violations.push_back(size_d(matcher.stats().violations));
    }
  });
  out.note("reference_pass.checksum", hex64(sink));

  home::trace::ThreadRegistry registry;
  register_synth_threads(synth, &registry);
  if (!opt.trace) {
    report_end_to_end(e2e, out);  // peak memory before the stream check's.
    check_stream(synth, registry, out);
    return out;
  }
  check_stream(synth, registry, out);

  const Tracer& t = tracer();
  const double events = size_d(synth.trace.events.size());
  const double load = median(t.per_op_ms("salvage_wal_file"));
  const double hb = median(t.per_op_ms("detect.hb", "RaceDetector::analyze"));
  const double sweep =
      median(t.per_op_ms("detect.sweep", "RaceDetector::analyze"));
  const double match = median(t.per_op_ms("spec.match", "Matcher::match"));
  out.set("trace.wal_load_ms", load, "ms");
  out.set("trace.load_ns_per_event", load * 1e6 / events, "ns");
  out.set("trace.file_bytes", static_cast<double>(file_bytes), "bytes");
  out.set("detect.hb_ms", hb, "ms");
  out.set("detect.hb_ns_per_event", hb * 1e6 / events, "ns");
  out.set("detect.sweep_ms", sweep, "ms");
  out.set("detect.sweep_serial_ms",
          median(t.per_op_ms("detect.sweep", "RaceDetector::analyze(serial)")),
          "ms");
  out.set("detect.vars", mean(vars), "count");
  out.set("detect.pairs_checked", mean(checked), "count");
  out.set("detect.concurrent_pairs", mean(pairs), "count");
  out.set("spec.match_ms", match, "ms");
  out.set("spec.call_pairs", mean(call_pairs), "count");
  out.set("spec.violations", mean(violations), "count");
  const double ratio = report_trace_overhead(traced_ms, untraced_ms, out);

  // The four layers' self times must account for the report: within the
  // tracing overhead (plus kAccountingSlack) of the untraced report time.
  const double parts = load + hb + sweep + match;
  const double report_ms = median(untraced_ms);
  const double within = std::max(ratio, 1.0) * kAccountingSlack;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "load+hb+sweep+match=%.3fms report_ms_p50(untraced)=%.3fms "
                "covered=%.3f allowed=[%.3f,%.3f]",
                parts, report_ms, parts / report_ms, 1.0 / within, within);
  out.note("accounting", buf);
  out.check(parts >= report_ms / within && parts <= report_ms * within,
            std::string("layer self times do not account for the report: ") +
                buf);

  // Layers the ops do not exercise: execution and sweeps on the hidden-race
  // program, text loading and streaming on the synthetic trace.
  const Program hidden = hidden_race_program();
  probe_fixed_costs(out);
  probe_execution(hidden, out);
  probe_text_load(synth.trace, opt.out_dir, out);
  probe_online(synth.trace, &registry, out);
  probe_explore(hidden, out);
  note_probe_subject(hidden, synth.trace, out);
  return out;
}

// ------------------------------------------------------------ sweep_hidden

namespace {

constexpr char kHiddenKey[] = "2|0|hidden.racy_recv|hidden.racy_recv|comm1";
/// Controlled schedules per sweep.  A pick-only schedule reaches the hidden
/// V3 with probability 1/4, so a base seed misses it with odds ~1e-6.
constexpr int kSchedulesPerSweep = 48;
/// Base seeds the ops cycle through.  Schedule picks follow from the seed
/// alone, so each is checked once in set-up to reach the hidden V3, and the
/// ops cannot miss it by chance.
constexpr std::size_t kSweepSeeds = 8;

home::explore::SweepConfig sweep_config(std::uint64_t base_seed, int schedules) {
  home::explore::SweepConfig cfg;
  cfg.nranks = home::apps::kHiddenRaceRanks;
  cfg.nthreads = 2;
  cfg.schedules = schedules;
  cfg.base_seed = base_seed;
  cfg.strategy = home::explore::StrategyKind::kWildcardReorder;
  cfg.run_baseline = true;
  return cfg;
}

const home::explore::SweepFinding* hidden_finding(
    const home::explore::SweepResult& result) {
  for (const home::explore::SweepFinding& f : result.findings) {
    if (f.key == kHiddenKey) return &f;
  }
  return nullptr;
}

}  // namespace

Outcome run_sweep_hidden(const Options& opt) {
  Outcome out;
  const Program hidden = hidden_race_program();
  const home::explore::Sweeper::RankMain rank_main =
      [&hidden](home::simmpi::Process& p) { hidden.rank_main(p); };
  bool baseline_clean = true;
  std::vector<std::uint64_t> base_seeds;
  EndToEnd e2e;
  e2e.setup_s = timed_setup([&] {
    run_base(hidden);
    base_seeds.clear();
    for (std::uint64_t k = 0;
         base_seeds.size() < kSweepSeeds && k < 4 * kSweepSeeds; ++k) {
      const std::uint64_t base_seed = mix_seed(opt.seed, 3 + k) >> 24;
      const home::explore::SweepResult result =
          home::explore::Sweeper(sweep_config(base_seed, kSchedulesPerSweep))
              .run(rank_main);
      if (result.baseline_keys.count(kHiddenKey) != 0) baseline_clean = false;
      if (hidden_finding(result) != nullptr) base_seeds.push_back(base_seed);
    }
  });
  out.check(baseline_clean, "the uncontrolled baseline reported the hidden V3");
  out.check(base_seeds.size() == kSweepSeeds,
            "fewer than " + std::to_string(kSweepSeeds) +
                " base seeds reach the hidden V3");
  if (base_seeds.empty()) base_seeds.push_back(mix_seed(opt.seed, 3) >> 24);

  home::util::Rng rng(mix_seed(opt.seed, 2));
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> hits_per, orderings_per, pruned;

  closed_loop(opt, 20, [&](std::uint64_t i, bool traced) {
    const home::explore::SweepConfig cfg =
        sweep_config(base_seeds[i % base_seeds.size()], kSchedulesPerSweep);
    const bool base_first = rng.next_bool();
    BaseRun base;
    if (base_first) base = run_base(hidden);
    home::explore::SweepResult result;
    const double t0 = now_s();
    {
      Span span("Sweeper::run");
      result = home::explore::Sweeper(cfg).run(rank_main);
    }
    const double t1 = now_s();
    if (!base_first) base = run_base(hidden);

    const home::explore::SweepFinding* finding = hidden_finding(result);
    // Outside the timing: replay the finding.
    bool replayed = false;
    if (finding != nullptr) {
      Span span("Sweeper::replay");
      replayed = home::explore::Sweeper(sweep_config(0, 0))
                     .replay(finding->schedule, rank_main)
                     .count(kHiddenKey) > 0;
    }
    out.check(base.run.ok() && result.run_errors.empty() && finding != nullptr &&
                  result.baseline_keys.count(kHiddenKey) == 0 && replayed,
              "sweep op " + std::to_string(i) + " (base seed " +
                  std::to_string(cfg.base_seed) + "): hidden V3 " +
                  (finding == nullptr ? "not found" : "not replayed"));

    const double runs = std::max(1, result.schedules_run);
    const double per_schedule_ms = (t1 - t0) * 1e3 / runs;
    e2e.checked_ms.push_back(per_schedule_ms);
    e2e.report_ms.push_back((t1 - t0) * 1e3);
    e2e.overhead.push_back(per_schedule_ms / (base.exec_s * 1e3));
    e2e.events_per_s.push_back(static_cast<double>(result.hook_hits) / (t1 - t0));
    e2e.schedules_per_s.push_back(runs / (t1 - t0));
    (traced ? traced_ms : untraced_ms).push_back(per_schedule_ms);
    if (traced) {
      hits_per.push_back(static_cast<double>(result.hook_hits) / runs);
      orderings_per.push_back(size_d(result.orderings.size()) / runs);
      pruned.push_back(size_d(result.pruned.size()));
    }
  });

  if (!opt.trace) {
    report_end_to_end(e2e, out);
    out.note("sweep.schedules_per_op", std::to_string(kSchedulesPerSweep + 1));
    return out;
  }

  out.set("explore.ms_per_schedule", median(traced_ms), "ms");
  out.set("explore.hook_hits_per_schedule", mean(hits_per), "count");
  out.set("explore.orderings_per_schedule", mean(orderings_per), "ratio");
  out.set("explore.pruned", mean(pruned), "count");
  report_trace_overhead(traced_ms, untraced_ms, out);

  // Layers the sweeps do not report on their own: paired Base/HOME runs of
  // the same program, and its trace's loading, detection and streaming.
  probe_fixed_costs(out);
  const home::trace::LoadedTrace trace = probe_execution(hidden, out);
  probe_wal_load(trace, opt.out_dir, out);
  probe_text_load(trace, opt.out_dir, out);
  probe_detect(trace, out);
  probe_online(trace, nullptr, out);
  note_probe_subject(hidden, trace, out);
  return out;
}

}  // namespace perfbench
