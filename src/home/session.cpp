#include "src/home/session.hpp"

#include <string>

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
  if (cfg_.explore.enabled) {
    // Replay takes precedence over a generating strategy: the recorded
    // decisions are re-applied and everything else stays default.
    std::unique_ptr<explore::Strategy> strategy =
        cfg_.explore.replay
            ? explore::make_replay_strategy(*cfg_.explore.replay)
            : explore::make_strategy(cfg_.explore.strategy, cfg_.explore.seed,
                                     cfg_.explore.guidance);
    explorer_ = std::make_unique<explore::Explorer>(std::move(strategy));
  }
  // A replayed record that injected faults re-applies exactly those, and
  // the generating fault options are ignored, as the explorer ignores its
  // strategy.
  const explore::Schedule* replay =
      explorer_ ? cfg_.explore.replay.get() : nullptr;
  if (replay != nullptr && replay->fault_spec) {
    injector_ = std::make_unique<faults::Injector>(
        *replay->fault_spec, replay->fault_seed, replay->faults);
  } else if (cfg_.faults.enabled) {
    injector_ = std::make_unique<faults::Injector>(cfg_.faults.spec,
                                                   cfg_.faults.seed);
  }
}

Session::~Session() {
  if (injector_) injector_->quiesce();
  // Unsubscribe before the analyzer (declared after log_) is destroyed.
  log_.set_sink(nullptr);
  if (wal_) wal_->close();
}

void Session::configure(simmpi::UniverseConfig& ucfg) {
  ucfg.log = &log_;
  ucfg.registry = &registry_;
  if (cfg_.mode == AnalysisMode::kOnline && !analyzer_) {
    online::OnlineConfig ocfg;
    ocfg.detector = make_detector_config(cfg_);
    ocfg.queue_capacity = cfg_.online.queue_capacity;
    ocfg.retire_interval = cfg_.online.retire_interval;
    ocfg.stream.on_violation = cfg_.online.on_violation;
    analyzer_ = std::make_unique<online::OnlineAnalyzer>(
        std::move(ocfg), &log_.strings(), &registry_, injector_.get());
    log_.set_streaming_only(!cfg_.online.retain_trace);
  }
  if (!cfg_.wal_path.empty() && !wal_) {
    wal_ = std::make_unique<trace::WalWriter>(cfg_.wal_path, &log_.strings());
  }
  // Single sink slot: WAL alone, analyzer alone, or a tee over both.  The
  // WAL comes first in the tee so an event reaches durable storage before
  // the analyzer's queue can block on it.
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
  util::RunContext& run = universe.run_context();
  run.log = &log_;
  run.registry = &registry_;
  run.explorer = explorer_.get();
  run.injector = injector_.get();
}

void Session::detach(simmpi::Universe& universe) {
  universe.hooks().remove(wrappers_.get());
  util::RunContext& run = universe.run_context();
  run.log = nullptr;
  run.registry = nullptr;
  run.explorer = nullptr;
  run.injector = nullptr;
  // Deliver any still-parked (dropped) messages now, while the universe the
  // redelivery thunks capture is still alive.
  if (injector_) injector_->quiesce();
}

explore::Schedule Session::recorded_schedule() const {
  explore::Schedule schedule;
  if (explorer_) {
    schedule = explorer_->schedule();
    schedule.strategy = explorer_->strategy().name();
    schedule.seed = cfg_.explore.seed;
  }
  if (injector_) {
    schedule.fault_spec = injector_->spec();
    schedule.fault_seed = injector_->seed();
    schedule.faults = injector_->decisions();
  }
  return schedule;
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

Report Session::analyze_online() {
  obs::Span span("session.analyze");
  util::Stopwatch timer;

  // Stop subscribing, close the WAL (the run is over, so it is complete) and
  // drain the streaming engine.  Its queue blocked instead of dropping, so it
  // analyzed every event the log holds.
  log_.set_sink(nullptr);
  if (wal_) wal_->close();
  analyzer_->finish();
  std::vector<spec::Violation> violations = analyzer_->violations();
  const online::OnlineStats ostats = analyzer_->stats();

  // Certificates need a full HB index, which the streaming engine retires
  // incrementally, so online provenance runs a post-mortem pass over the
  // retained trace: its violation keys equal the online verdicts', and its
  // records carry the call seqs the certificates anchor to.
  if (cfg_.diagnose.enabled && cfg_.online.retain_trace) post_mortem_pass();

  ReportStats stats;
  stats.trace_events = ostats.events_processed;
  stats.instrumented_calls = wrappers_->instrumented_calls();
  stats.skipped_calls = wrappers_->skipped_calls();
  stats.monitored_variables = ostats.monitored_variables;
  stats.concurrent_variables = ostats.concurrent_variables;
  stats.concurrent_pairs = ostats.concurrent_pairs;
  stats.analysis_seconds = timer.elapsed_seconds();
  return Report(std::move(violations), stats);
}

std::string Session::telemetry_summary() const { return obs::summary_table(); }

}  // namespace home
