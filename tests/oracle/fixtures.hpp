// Fixtures shared by the detector, clock and online test suites and by the
// benches that cross-check the engine: the seeded random trace, the pair
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
#include "src/home/check.hpp"
#include "src/trace/event.hpp"
#include "tests/oracle/pairwise_oracle.hpp"

namespace home::oracle {

/// A random hybrid-looking trace: 2..5 threads interleave reads/writes on a
/// small variable pool under randomly acquired/released locks, with
/// occasional full barriers and cross-"rank" message edges.  Locksets are
/// consistent (a snapshot of the locks held).  Threads appear without fork
/// edges.
std::vector<trace::Event> random_trace(std::uint64_t seed);

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
std::set<std::string> key_set(const Report& report);

/// One run of `rank_main` under an online-mode session (cfg.session.mode
/// must be kOnline), plus the keys a post-mortem pass finds over the trace
/// that same run retained.
struct OnlineRun {
  Report report;
  simmpi::RunResult run;
  online::OnlineStats stats;
  std::set<std::string> post_mortem_keys;
};
OnlineRun run_online(const CheckConfig& cfg,
                     const std::function<void(simmpi::Process&)>& rank_main);

}  // namespace home::oracle
