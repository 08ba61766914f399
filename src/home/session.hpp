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
// Sessions own the trace log and thread registry; exactly one session may be
// attached at a time (homp instrumentation is process-global, mirroring how
// one Pin tool instruments one process).
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

/// Knobs for AnalysisMode::kOnline.
struct OnlineOptions {
  std::size_t queue_capacity = 4096;
  online::BackpressurePolicy backpressure = online::BackpressurePolicy::kBlock;
  /// Events between epoch-retirement sweeps; 0 disables retirement.
  std::size_t retire_interval = 1024;
  /// Keep the trace in the log alongside streaming (needed for diagnosis,
  /// exact shed recovery and save_trace; turn off for unbounded runs).
  bool retain_trace = true;
  std::size_t max_live_reports_per_type = 16;
  /// Live first-occurrence reports, invoked on the analysis thread.
  std::function<void(const spec::Violation&)> on_violation;
};

/// Seeded fault injection (off by default).  When enabled the session
/// installs a faults::Injector for the attach()..detach() window; the
/// decisions it takes are recorded as a replayable FaultPlan
/// (Session::recorded_fault_plan()).
struct FaultOptions {
  bool enabled = false;
  /// Per-kind probabilities and magnitudes (generate mode).
  faults::FaultSpec spec;
  std::uint64_t seed = 1;
  /// Replay a recorded plan exactly instead of drawing fresh decisions
  /// (takes precedence over spec/seed, mirroring explore::Options::replay).
  std::shared_ptr<const faults::FaultPlan> replay;
};

struct SessionConfig {
  detect::DetectorMode detector = detect::DetectorMode::kHybrid;
  InstrumentFilter filter = InstrumentFilter::kParallelOnly;
  /// Callsite labels from the static analysis (used with kPlan).
  std::set<std::string> plan;
  /// Model cross-rank send->recv pairs as happens-before edges.
  bool message_edges = true;
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
/// Session, the online recovery paths, analyze_trace, the ITC baseline —
/// runs this one pipeline.
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

  /// Register the MPI wrappers and homp instrumentation.
  void attach(simmpi::Universe& universe);
  void detach(simmpi::Universe& universe);

  /// Produce the violation report.  Post-mortem mode runs the offline
  /// pipeline (race detection over the monitored variables, then matching);
  /// online mode drains the streaming analyzer, and runs a post-mortem pass
  /// over the retained trace only when diagnosis or shed recovery needs one.
  Report analyze();

  /// Explanation certificates for the last analyze() (empty unless
  /// config().diagnose.enabled; online mode needs retain_trace).
  const diagnose::ProvenanceReport& provenance() const { return provenance_; }

  /// The streaming engine (null in post-mortem mode or before configure()).
  online::OnlineAnalyzer* online_analyzer() { return analyzer_.get(); }

  /// The schedule explorer (null unless config().explore.enabled; live from
  /// attach() until the Session dies — decisions survive detach()).
  explore::Explorer* explorer() { return explorer_.get(); }

  /// The decision log recorded so far, stamped with the strategy/seed from
  /// the config (empty Schedule when exploration is off).
  explore::Schedule recorded_schedule() const;

  /// The fault injector (null unless config().faults.enabled; live from
  /// attach() until the Session dies — the recorded plan survives detach()).
  faults::Injector* injector() { return injector_.get(); }

  /// The faults actually injected so far (empty FaultPlan when injection is
  /// off) — save() it to get a replayable *.faultplan artifact.
  faults::FaultPlan recorded_fault_plan() const;

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
  /// Declared after log_ so it is destroyed first (it joins its analysis
  /// thread while the log it subscribes to is still alive).
  std::unique_ptr<online::OnlineAnalyzer> analyzer_;
  std::unique_ptr<explore::Explorer> explorer_;
  std::unique_ptr<faults::Injector> injector_;
  std::unique_ptr<trace::WalWriter> wal_;
  /// Fans the log's single sink slot out to {wal_, analyzer_} when both run.
  trace::TeeSink tee_;
  diagnose::ProvenanceReport provenance_;
  bool attached_ = false;
};

}  // namespace home
