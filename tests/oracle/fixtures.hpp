// Fixtures shared by the detector, clock, online and matcher test suites and
// by the benches that cross-check the engine: the seeded random traces (plain
// accesses, and MPI calls in the wrappers' shape), the pair and key
// extractors for the post-mortem and the streamed engine paths, and one
// online-mode run checked against a post-mortem pass over its own trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/faults/fault.hpp"
#include "src/home/check.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/event.hpp"
#include "src/trace/trace_log.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace home::oracle {

/// A random hybrid-looking trace: 2..5 threads interleave reads/writes on a
/// small variable pool under randomly acquired/released locks, with
/// occasional full barriers and cross-"rank" message edges.  Locksets are
/// consistent (a snapshot of the locks held).  Threads appear without fork
/// edges.
std::vector<trace::Event> random_trace(std::uint64_t seed);

/// Builds traces shaped exactly like HomeWrappers' output: every MPI call
/// event is followed by the writes of its monitored variables, aux-linked to
/// the call's seq.  Seqs are assigned in emission order.
class TraceBuilder {
 public:
  struct CallSpec {
    trace::MpiCallType type = trace::MpiCallType::kRecv;
    int rank = 0;
    trace::Tid tid = 0;
    int peer = -1;
    int tag = -1;
    std::uint64_t comm = 1;
    std::uint64_t request = 0;
    bool on_main = false;
    std::uint8_t provided = 3;  // MPI_THREAD_MULTIPLE by default.
    std::vector<trace::ObjId> locks;
    const char* site = nullptr;
  };

  void call(const CallSpec& spec);
  /// One sync or access event (lock, message, barrier arrival, ...).
  void event(trace::Tid tid, trace::EventKind kind, trace::ObjId obj,
             std::uint64_t aux = 0);
  /// Every thread in `tids` arrives at barrier `id`.
  void barrier(const std::vector<trace::Tid>& tids, trace::ObjId id);
  void region_begin(int rank, trace::Tid tid, int team = 2);

  std::vector<trace::Event> events() const { return log_.sorted_events(); }
  const trace::StringTable& strings() const { return log_.strings(); }

 private:
  trace::TraceLog log_;
};

/// A seeded random hybrid MPI trace built through `tb`: 1..3 ranks of 2..4
/// threads (thread 0 of a rank is its main thread); per rank one
/// MPI_Init[_thread] at a random provided level, sometimes after other
/// calls; parallel-region begins; point-to-point, probe, request and
/// collective calls from every thread, off-main ones included, some under a
/// rank lock; rank barriers; cross-thread message edges; and 0..2 finalizes
/// per rank placed anywhere.  Callsite labels come from a small pool, so
/// distinct calls share keys; a quarter of the seeds carry no labels at all
/// (seq-based keys).  Threads appear without fork edges.
void random_mpi_trace(std::uint64_t seed, TraceBuilder* tb);

/// Largest tid in `events` (-1 when empty).
int max_tid(const std::vector<trace::Event>& events);

/// The oracle mode with the same meaning as a detector mode.
Mode oracle_mode(detect::DetectorMode mode);

/// The engine's per-variable `concurrent` verdicts.
std::map<trace::ObjId, bool> engine_verdicts(
    const detect::ConcurrencyReport& report);

using SeqPair = std::pair<trace::Seq, trace::Seq>;
using PairsByVar = std::map<trace::ObjId, std::vector<SeqPair>>;

/// The post-mortem detector's reported pairs, as seqs, per variable.
PairsByVar report_pairs(const detect::ConcurrencyReport& report);

/// Stream `events` through IncrementalHb + IncrementalFrontier, retiring
/// every `retire_every` events (0 = never), and collect the pairs per
/// variable.  The whole thread population is declared up front, as the
/// analyzer does from the ThreadRegistry.  `epoch_hits`, when non-null,
/// receives the frontier's epoch-test tally.
PairsByVar streamed_pairs(const std::vector<trace::Event>& events,
                          const detect::RaceDetectorConfig& cfg,
                          std::size_t retire_every,
                          std::size_t* epoch_hits = nullptr);

/// Violation keys of a report.
std::set<std::string> key_set(const std::vector<spec::Violation>& violations);
std::set<std::string> key_set(const Report& report);

/// Every field of each violation, rendered and keyed by violation_key (a
/// key listed twice keeps its first record).
std::map<std::string, std::string> records_by_key(
    const std::vector<spec::Violation>& violations);

/// The keys an OnlineAnalyzer finds streaming `events` with detector `cfg`,
/// retiring every `retire_every` events (0 = never).  The whole thread
/// population is declared up front, as streamed_pairs does.
std::set<std::string> streamed_keys(const std::vector<trace::Event>& events,
                                    const trace::StringTable& strings,
                                    const detect::RaceDetectorConfig& cfg,
                                    std::size_t retire_every);

/// One run of `rank_main` under an online-mode session (cfg.session.mode
/// must be kOnline), plus the keys a post-mortem pass finds over the trace
/// that same run retained.
struct OnlineRun {
  Report report;
  simmpi::RunResult run;
  online::OnlineStats stats;
  std::set<std::string> post_mortem_keys;
  std::size_t retained_events = 0;  ///< events in the run's retained trace.
  std::vector<faults::FaultDecision> faults;  ///< faults the run injected.
};
OnlineRun run_online(const CheckConfig& cfg,
                     const std::function<void(simmpi::Process&)>& rank_main);

}  // namespace home::oracle
