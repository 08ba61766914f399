#include "src/home/session.hpp"

#include <sstream>
#include <string>

#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/obs/export.hpp"
#include "src/obs/span.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/trace/trace_io.hpp"
#include "src/util/stats.hpp"

namespace home {

detect::RaceDetectorConfig make_detector_config(const SessionConfig& cfg) {
  detect::RaceDetectorConfig dcfg;
  dcfg.mode = cfg.detector;
  dcfg.max_pairs_per_var = cfg.max_pairs_per_var;
  dcfg.analysis_threads = cfg.analysis_threads;
  return dcfg;
}

PostMortem analyze_post_mortem(std::vector<trace::Event> events,
                               const trace::StringTable& strings,
                               const detect::RaceDetectorConfig& cfg) {
  ReportStats stats;
  stats.trace_events = events.size();
  detect::ConcurrencyReport concurrency =
      detect::RaceDetector(cfg).analyze(std::move(events));
  std::vector<spec::Violation> violations =
      spec::Matcher(&strings).match(concurrency);
  for (const auto& [var, verdict] : concurrency.verdicts()) {
    if (!spec::is_monitored_var(var)) continue;
    ++stats.monitored_variables;
    if (verdict.concurrent) ++stats.concurrent_variables;
    stats.concurrent_pairs += verdict.pairs.size();
  }
  return PostMortem{std::move(concurrency), std::move(violations), stats};
}

Session::Session(SessionConfig cfg) : cfg_(std::move(cfg)) {
  WrapperConfig wcfg;
  wcfg.filter = cfg_.filter;
  wcfg.plan = cfg_.plan;
  wrappers_ = std::make_unique<HomeWrappers>(std::move(wcfg), &log_, &registry_);
}

Session::~Session() {
  if (attached_) {
    homp::clear_instrumentation();
    explore::uninstall();
    faults::uninstall();
  }
  if (injector_) injector_->quiesce();
  // Unsubscribe before the analyzer (declared after log_) is destroyed.
  log_.set_sink(nullptr);
  if (wal_) wal_->close();
}

void Session::configure(simmpi::UniverseConfig& ucfg) {
  ucfg.log = &log_;
  ucfg.registry = &registry_;
  ucfg.emit_message_edges = cfg_.message_edges;
  if (cfg_.mode == AnalysisMode::kOnline && !analyzer_) {
    online::OnlineConfig ocfg;
    ocfg.detector = make_detector_config(cfg_);
    ocfg.queue_capacity = cfg_.online.queue_capacity;
    ocfg.backpressure = cfg_.online.backpressure;
    ocfg.retire_interval = cfg_.online.retire_interval;
    ocfg.stream.max_live_reports_per_type =
        cfg_.online.max_live_reports_per_type;
    ocfg.stream.on_violation = cfg_.online.on_violation;
    analyzer_ = std::make_unique<online::OnlineAnalyzer>(
        std::move(ocfg), &log_.strings(), &registry_);
    log_.set_streaming_only(!cfg_.online.retain_trace);
  }
  if (!cfg_.wal_path.empty() && !wal_) {
    wal_ = std::make_unique<trace::WalWriter>(cfg_.wal_path, &log_.strings());
  }
  // Single sink slot: WAL alone, analyzer alone, or a tee over both.  The
  // WAL comes first in the tee so an event reaches durable storage before
  // the analyzer's queue can block or shed it.
  if (wal_ && analyzer_) {
    if (tee_.size() == 0) {
      tee_.add(wal_.get());
      tee_.add(analyzer_.get());
    }
    log_.set_sink(&tee_);
  } else if (analyzer_) {
    log_.set_sink(analyzer_.get());
  } else if (wal_) {
    log_.set_sink(wal_.get());
  }
}

void Session::attach(simmpi::Universe& universe) {
  universe.hooks().add(wrappers_.get());
  homp::install_instrumentation(homp::Instrumentation{&log_, &registry_});
  if (cfg_.explore.enabled && !explorer_) {
    // Replay takes precedence over a generating strategy: the recorded
    // decisions are re-applied and everything else stays default.
    std::unique_ptr<explore::Strategy> strategy =
        cfg_.explore.replay
            ? explore::make_replay_strategy(*cfg_.explore.replay)
            : explore::make_strategy(cfg_.explore.strategy, cfg_.explore.seed,
                                     cfg_.explore.tuning,
                                     cfg_.explore.guidance);
    explorer_ = std::make_unique<explore::Explorer>(std::move(strategy));
  }
  if (explorer_) explore::install(explorer_.get());
  if (cfg_.faults.enabled && !injector_) {
    // Replay precedence mirrors the explorer: a recorded plan is applied
    // exactly and the generating spec/seed are ignored.
    injector_ = cfg_.faults.replay
                    ? std::make_unique<faults::Injector>(*cfg_.faults.replay)
                    : std::make_unique<faults::Injector>(cfg_.faults.spec,
                                                         cfg_.faults.seed);
  }
  if (injector_) faults::install(injector_.get());
  attached_ = true;
}

void Session::detach(simmpi::Universe& universe) {
  universe.hooks().remove(wrappers_.get());
  homp::clear_instrumentation();
  explore::uninstall();
  faults::uninstall();
  // Deliver any still-parked (dropped) messages now, while the universe the
  // redelivery thunks capture is still alive.
  if (injector_) injector_->quiesce();
  attached_ = false;
}

explore::Schedule Session::recorded_schedule() const {
  if (!explorer_) return explore::Schedule{};
  explore::Schedule schedule = explorer_->schedule();
  schedule.strategy = explorer_->strategy().name();
  schedule.seed = cfg_.explore.seed;
  return schedule;
}

faults::FaultPlan Session::recorded_fault_plan() const {
  if (!injector_) return faults::FaultPlan{};
  return injector_->plan();
}

void Session::save_trace(const std::string& path) const {
  trace::save_trace_file(path, log_);
}

std::vector<spec::MessageRace> Session::message_races() {
  detect::ConcurrencyReport concurrency =
      detect::RaceDetector(make_detector_config(cfg_))
          .analyze(log_.sorted_events());
  return spec::find_message_races(concurrency, &log_.strings());
}

PostMortem Session::post_mortem_pass() {
  PostMortem pass = analyze_post_mortem(log_.sorted_events(), log_.strings(),
                                        make_detector_config(cfg_));
  if (cfg_.diagnose.enabled) {
    const explore::Schedule schedule = recorded_schedule();
    provenance_ = diagnose::diagnose_violations(
        pass.concurrency.hb(), pass.violations, &log_.strings(),
        detect::happens_before_config(cfg_.detector), cfg_.diagnose,
        explorer_ ? &schedule : nullptr);
  }
  return pass;
}

Report Session::analyze() {
  if (cfg_.mode == AnalysisMode::kOnline && analyzer_) {
    return analyze_online();
  }

  obs::Span span("session.analyze");
  util::Stopwatch timer;
  PostMortem pass = post_mortem_pass();
  ReportStats stats = pass.stats;
  stats.instrumented_calls = wrappers_->instrumented_calls();
  stats.skipped_calls = wrappers_->skipped_calls();
  stats.analysis_seconds = timer.elapsed_seconds();
  return Report(std::move(pass.violations), stats);
}

namespace {

// "shed 120 event(s) in 3 window(s) [seq 17..44, 102..130, 419..441]".
std::string shed_summary(const std::vector<online::ShedWindow>& shed) {
  std::size_t total = 0;
  for (const online::ShedWindow& w : shed) total += w.count;
  std::ostringstream os;
  os << "shed " << total << " event(s) in " << shed.size() << " window(s) [";
  constexpr std::size_t kMaxListed = 8;
  for (std::size_t i = 0; i < shed.size() && i < kMaxListed; ++i) {
    if (i > 0) os << ", ";
    os << "seq " << shed[i].first << ".." << shed[i].last;
  }
  if (shed.size() > kMaxListed) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace

Report Session::analyze_online() {
  obs::Span span("session.analyze");
  util::Stopwatch timer;

  // Stop subscribing and drain the streaming engine.  The WAL (if any) is
  // complete at this point — close it so the salvage path below sees every
  // frame, including the events the analyzer's queue shed.
  log_.set_sink(nullptr);
  if (wal_) wal_->close();
  analyzer_->finish();
  std::vector<spec::Violation> violations = analyzer_->violations();
  const online::OnlineStats ostats = analyzer_->stats();
  const std::vector<online::ShedWindow> shed = analyzer_->shed_windows();
  std::vector<std::string> degraded_reasons;

  // Online provenance needs a post-mortem pass over the retained trace
  // (certificates need a full HB index, which the streaming engine retires
  // incrementally; the pass's violation keys equal the online verdicts', and
  // its records carry the call seqs the certificates anchor to).  Shed
  // recovery rides the same pass: the shard append is independent of the
  // analyzer's queue, so the retained trace holds the shed events and the
  // pass over it is exact.
  if ((cfg_.diagnose.enabled || !shed.empty()) && cfg_.online.retain_trace) {
    PostMortem pass = post_mortem_pass();
    // Recovery: adopt the post-mortem verdicts, so the report stays kExact.
    if (!shed.empty()) violations = std::move(pass.violations);
  } else if (!shed.empty() && wal_) {
    // No retained trace, but the write-ahead copy has every emitted event,
    // including the shed ones.  Salvage it and re-analyze; exact when the
    // salvage is clean, degraded when the WAL itself is torn.
    const Report recovered = analyze_wal_file(wal_->path(), cfg_);
    violations = recovered.violations();
    for (const std::string& reason : recovered.degraded_reasons()) {
      degraded_reasons.push_back("online " + shed_summary(shed) + "; " +
                                 reason);
    }
  } else if (!shed.empty()) {
    // Shed events with no recovery source: the findings stand, but absence
    // of a finding is inconclusive.  Report the exact loss.
    degraded_reasons.push_back(
        "online " + shed_summary(shed) +
        "; no retained trace or WAL to recover from — results are a lower "
        "bound");
  }

  ReportStats stats;
  stats.trace_events = ostats.events_processed;
  stats.instrumented_calls = wrappers_->instrumented_calls();
  stats.skipped_calls = wrappers_->skipped_calls();
  stats.monitored_variables = ostats.monitored_variables;
  stats.concurrent_variables = ostats.concurrent_variables;
  stats.concurrent_pairs = ostats.concurrent_pairs;
  stats.analysis_seconds = timer.elapsed_seconds();
  Report report(std::move(violations), stats);
  for (std::string& reason : degraded_reasons) {
    report.mark_degraded(std::move(reason));
  }
  return report;
}

std::string Session::telemetry_summary() const { return obs::summary_table(); }

}  // namespace home
