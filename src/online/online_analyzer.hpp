// OnlineAnalyzer — the streaming detection engine (the tentpole of the
// online subsystem).
//
// Producer side: the analyzer is a trace::EventSink; TraceLog::emit delivers
// every event, stamped and in strictly increasing seq order, into a bounded
// EventQueue (block or drop-with-counter backpressure).  Consumer side: one
// dedicated analysis thread pops events and, per event,
//
//   1. advances the incremental vector clocks (IncrementalHb::advance — the
//      same code path the post-mortem HappensBeforeAnalysis replays),
//   2. feeds accesses through the IncrementalFrontier, which surfaces new
//      concurrent pairs immediately,
//   3. feeds calls / regions / pairs into the spec::Matcher (the same
//      premise tracker Matcher::match replays post-mortem), whose
//      violations flow into the ViolationStream (dedup + rate limit + live
//      callback).
//
// Epoch-based retirement: every `retire_interval` events the analyzer
// computes the watermark (pointwise meet of all live threads' clocks) and
// reclaims frontier records, dead lock/message clocks, and matcher call
// records at or below it — a record the watermark dominates is
// happens-before every future event and can never complete a race or a
// violation premise again.  This caps resident state on arbitrarily long
// runs.  Retirement is skipped under kLocksetOnly (lockset races ignore HB,
// so no HB watermark can justify dropping a record).
//
// Equivalence: with kBlock backpressure the analyzer processes exactly the
// events the post-mortem pipeline would read from the log, in the same
// order, through the same clock updates, the same frontier type, and the
// same matcher — so the final violation-key set matches the post-mortem
// report's (tests/online_equivalence_test.cpp compares the two over one
// run's retained trace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/online/event_queue.hpp"
#include "src/online/violation_stream.hpp"
#include "src/spec/matcher.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/thread_pool.hpp"

namespace home::faults {
class Injector;
}  // namespace home::faults

namespace home::online {

struct OnlineConfig {
  /// Detection knobs (mode, pair budget) — give the online engine the same
  /// RaceDetectorConfig the post-mortem detector would use.
  detect::RaceDetectorConfig detector;
  std::size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Events between epoch-retirement sweeps; 0 disables retirement.
  std::size_t retire_interval = 1024;
  ViolationStreamConfig stream;
};

struct OnlineStats {
  std::size_t events_processed = 0;
  std::size_t events_dropped = 0;   ///< total (capacity + shutdown).
  std::size_t dropped_capacity = 0; ///< kDropNewest on a full queue.
  std::size_t dropped_shutdown = 0; ///< emit after session teardown.
  std::uint64_t blocked_ns = 0;     ///< producer backpressure stalls (kBlock).
  std::size_t max_queue_depth = 0;
  std::size_t retire_sweeps = 0;
  std::size_t records_retired = 0;
  /// Resident analyzer state (frontier records + clock entries + retained
  /// matcher calls + pending call links), sampled at every retirement check
  /// point; state only grows between checks, so the peak is exact up to one
  /// interval.
  std::size_t peak_resident = 0;
  std::size_t final_resident = 0;
  /// Heap bytes held by the HB replay's thread/lock/message/barrier clocks,
  /// sampled like peak_resident.  Frontier records and matcher calls keep
  /// 16-byte epochs and pin no clock bytes.
  std::size_t peak_clock_bytes = 0;
  std::size_t final_clock_bytes = 0;
  /// Frontier comparisons answered by the O(1) epoch test.
  std::size_t epoch_hits = 0;
  std::size_t monitored_variables = 0;
  std::size_t concurrent_variables = 0;
  std::size_t concurrent_pairs = 0;
  std::size_t violations = 0;       ///< deduplicated.
  std::size_t duplicate_reports = 0;
  std::size_t live_reports = 0;
  std::size_t suppressed_reports = 0;
};

class OnlineAnalyzer : public trace::EventSink {
 public:
  /// `strings` resolves callsite labels (may be null); `registry`, when
  /// given, supplies the thread population for the retirement watermark —
  /// without it only threads observed in the stream count, which is sound
  /// only when every new thread enters via a kThreadFork edge.  `injector`
  /// is the run's fault injector (may be null): the analysis thread runs
  /// with it bound, so its queue-pressure hook belongs to that run.
  OnlineAnalyzer(OnlineConfig cfg, const trace::StringTable* strings,
                 const trace::ThreadRegistry* registry,
                 faults::Injector* injector = nullptr);
  ~OnlineAnalyzer() override;
  OnlineAnalyzer(const OnlineAnalyzer&) = delete;
  OnlineAnalyzer& operator=(const OnlineAnalyzer&) = delete;

  /// EventSink: called by TraceLog::emit on the emitting thread.
  void on_event(const trace::Event& e) override;

  /// Close the queue, drain it, and join the analysis thread.  Idempotent.
  void finish();

  /// Final deduplicated violations (call after finish()).
  std::vector<spec::Violation> violations();

  /// Snapshot of the run statistics (safe to call while running).
  OnlineStats stats() const;

  /// Current resident record count (exact; call after finish(), or accept a
  /// benign race while the analysis thread runs).
  std::size_t resident_state() const;

  /// Current heap bytes held by HB clocks (same caveat as above).
  std::size_t resident_clock_bytes() const;

 private:
  void run();
  void process(const trace::Event& e);
  void checkpoint();  ///< resident sampling + periodic retirement.
  void fold_clock_counters();  ///< batch the frontier tally into obs.

  OnlineConfig cfg_;
  const trace::ThreadRegistry* registry_;
  EventQueue queue_;
  ViolationStream stream_;
  detect::IncrementalHb hb_;
  detect::IncrementalFrontier frontier_;
  spec::Matcher matcher_;

  /// kMpiCall events still linkable from their monitored-variable writes
  /// (aux back-link).  A thread's writes land before its next call, so each
  /// new call of a thread unlinks that thread's previous one — the map holds
  /// at most one entry per thread.
  std::map<trace::Seq, std::shared_ptr<const trace::Event>> calls_pending_;
  std::map<trace::Tid, trace::Seq> last_call_of_tid_;

  std::vector<detect::IncrementalFrontier::PairHit> hits_;  ///< scratch.
  std::size_t events_since_checkpoint_ = 0;
  /// Epoch-test tally already folded into obs::Registry (deltas are added
  /// at each checkpoint; the frontier keeps plain local counters so the hot
  /// loops never touch an atomic).
  std::size_t folded_epoch_hits_ = 0;

  mutable std::mutex stats_mu_;
  OnlineStats stats_;

  util::PooledThread worker_;
  bool finished_ = false;
};

}  // namespace home::online
