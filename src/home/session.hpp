// Session: the orchestrator tying the pipeline together (Figure 3).
//
//   Session session(cfg);
//   simmpi::UniverseConfig ucfg{...};
//   session.configure(ucfg);                  // install trace sinks
//   simmpi::Universe uni(ucfg);
//   session.attach(uni);                      // MPI wrappers + homp probes
//   uni.run(rank_main);
//   session.detach(uni);
//   Report report = session.analyze();        // detect + match
//
// Sessions own the trace log, thread registry, explorer and injector of one
// run; attach() puts them in that Universe's run context, so hooks on the
// run's threads reach this session's sinks and no other.  Any number of
// sessions may be attached to their own universes at once (a sweep runs its
// schedules concurrently this way).
#pragma once

#include <memory>

#include "src/detect/race_detector.hpp"
#include "src/diagnose/provenance.hpp"
#include "src/explore/hooks.hpp"
#include "src/explore/strategy.hpp"
#include "src/faults/injector.hpp"
#include "src/home/report.hpp"
#include "src/home/wrappers.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/simmpi/universe.hpp"
#include "src/spec/message_race.hpp"
#include "src/trace/wal.hpp"

namespace home {

/// When the detection pipeline runs relative to the program.
enum class AnalysisMode {
  kPostMortem,  ///< buffer the trace, analyze after the run (default).
  kOnline,      ///< stream events into the OnlineAnalyzer during the run.
};

/// Knobs for AnalysisMode::kOnline.  The event queue blocks the emitting
/// thread when full, so the analyzer sees every event the run logs.
struct OnlineOptions {
  std::size_t queue_capacity = 4096;
  /// Events between epoch-retirement sweeps; 0 disables retirement.
  std::size_t retire_interval = 1024;
  /// Keep the trace in the log alongside streaming (needed for diagnosis
  /// and save_trace; turn off for unbounded runs).
  bool retain_trace = true;
  /// Live first-occurrence reports (at most 16 per violation type), invoked
  /// on the analysis thread.
  std::function<void(const spec::Violation&)> on_violation;
};

/// Seeded fault injection (off by default).  When enabled the session's run
/// carries a faults::Injector from attach() to detach(); the faults it fires
/// are part of the run's record (Session::recorded_schedule()).  A replayed
/// record that injected faults (explore::Options::replay) re-applies exactly
/// those instead.
struct FaultOptions {
  bool enabled = false;
  /// Per-kind probabilities and magnitudes.
  faults::FaultSpec spec;
  std::uint64_t seed = 1;
};

struct SessionConfig {
  detect::DetectorMode detector = detect::DetectorMode::kHybrid;
  InstrumentFilter filter = InstrumentFilter::kParallelOnly;
  /// Callsite labels from the static analysis (used with kPlan).
  std::set<std::string> plan;
  std::size_t max_pairs_per_var = 64;
  /// Worker threads for the per-variable analysis; 0 = auto
  /// (hardware_concurrency), 1 = serial.
  std::size_t analysis_threads = 0;
  /// Post-mortem (default) or streaming detection during the run.
  AnalysisMode mode = AnalysisMode::kPostMortem;
  OnlineOptions online;
  /// Controlled scheduling: strategy-driven delays and matching picks at the
  /// runtime hook points, recorded as a replayable schedule (off by default).
  explore::Options explore;
  /// Violation provenance: explanation certificates with causal HB witnesses
  /// for every reported violation (off by default; `paranoid` additionally
  /// re-verifies each certificate through the independent replay oracle).
  diagnose::Options diagnose;
  /// Seeded fault injection at the runtime hook points (off by default).
  FaultOptions faults;
  /// Crash-safe write-ahead copy of the event stream: every emitted event is
  /// framed, CRC'd and flushed to this file as it happens, so a crashed run
  /// leaves a salvageable trace (analyze_wal_file).  Empty = no WAL.
  std::string wal_path;
};

/// The detector knobs a SessionConfig implies (shared by the live and the
/// offline analysis paths).
detect::RaceDetectorConfig make_detector_config(const SessionConfig& cfg);

/// One post-mortem pass: detection over a seq-sorted trace, matching, and
/// the report counts the two yield (trace events, monitored variables,
/// concurrent variables and pairs).  Every post-mortem entry point — the
/// Session, online diagnosis, analyze_trace, the ITC baseline — runs this
/// one pipeline.
struct PostMortem {
  detect::ConcurrencyReport concurrency;
  std::vector<spec::Violation> violations;
  ReportStats stats;
};
PostMortem analyze_post_mortem(std::vector<trace::Event> events,
                               const trace::StringTable& strings,
                               const detect::RaceDetectorConfig& cfg);

class Session {
 public:
  explicit Session(SessionConfig cfg = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Point the universe's trace sinks at this session (call before
  /// constructing the Universe).
  void configure(simmpi::UniverseConfig& ucfg);

  /// Register the MPI wrappers, and put the trace sinks, explorer and
  /// injector in the universe's run context.
  void attach(simmpi::Universe& universe);
  void detach(simmpi::Universe& universe);

  /// Produce the violation report.  Post-mortem mode runs the offline
  /// pipeline (race detection over the monitored variables, then matching);
  /// online mode drains the streaming analyzer, and runs a post-mortem pass
  /// over the retained trace only when diagnosis needs one.
  Report analyze();

  /// Explanation certificates for the last analyze() (empty unless
  /// config().diagnose.enabled; online mode needs retain_trace).
  const diagnose::ProvenanceReport& provenance() const { return provenance_; }

  /// The streaming engine (null in post-mortem mode or before configure()).
  online::OnlineAnalyzer* online_analyzer() { return analyzer_.get(); }

  /// The schedule explorer (null unless config().explore.enabled; lives as
  /// long as the Session — decisions survive detach()).
  explore::Explorer* explorer() { return explorer_.get(); }

  /// The run's replayable record so far: the scheduling decisions, stamped
  /// with the strategy/seed from the config, and the injected faults with
  /// their spec/seed (each part empty when its controller is off).
  explore::Schedule recorded_schedule() const;

  /// The fault injector (null unless the run injects or replays faults;
  /// lives as long as the Session — its faults survive detach()).
  faults::Injector* injector() { return injector_.get(); }

  /// The write-ahead trace writer (null unless config().wal_path is set).
  const trace::WalWriter* wal() const { return wal_.get(); }

  /// Persist this session's execution log for later offline analysis.
  void save_trace(const std::string& path) const;

  /// Human-readable end-of-run telemetry: counters/gauges/histograms from
  /// the global registry plus a per-span-name duration table ("Pipeline
  /// health").  Cheap; empty-ish when telemetry is disabled.
  std::string telemetry_summary() const;

  /// Informational message-race findings (wildcard receives with multiple
  /// concurrent candidate senders) — separate from the violation report.
  std::vector<spec::MessageRace> message_races();

  trace::TraceLog& log() { return log_; }
  trace::ThreadRegistry& registry() { return registry_; }
  const HomeWrappers& wrappers() const { return *wrappers_; }
  const SessionConfig& config() const { return cfg_; }

 private:
  Report analyze_online();
  /// analyze_post_mortem over the log, plus certificates when diagnosis is on.
  PostMortem post_mortem_pass();

  SessionConfig cfg_;
  trace::TraceLog log_;
  trace::ThreadRegistry registry_;
  std::unique_ptr<HomeWrappers> wrappers_;
  std::unique_ptr<explore::Explorer> explorer_;
  std::unique_ptr<faults::Injector> injector_;
  /// Declared after log_ and injector_ so it is destroyed first (it joins
  /// its analysis thread, which consults the injector, while the log it
  /// subscribes to is still alive).
  std::unique_ptr<online::OnlineAnalyzer> analyzer_;
  std::unique_ptr<trace::WalWriter> wal_;
  /// Fans the log's single sink slot out to {wal_, analyzer_} when both run.
  trace::TeeSink tee_;
  diagnose::ProvenanceReport provenance_;
};

}  // namespace home
