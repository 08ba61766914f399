// Streaming entry into the thread-safety spec: evaluates the six predicates
// of Section III.A incrementally, one event / one concurrent pair at a time,
// emitting each Violation the moment its premises are complete.
//
// The predicates themselves live in src/spec/rules.hpp and are shared with
// the post-mortem Matcher; this class owns the *incremental* premise
// tracking:
//
//   * V1 — the provided thread level is only known once MPI_Init[_thread]
//     has been observed, so off-main calls and the first concurrent pair
//     seen before init are buffered and re-judged when init arrives.
//   * V2 — a finalize is checked against every retained earlier call (using
//     HB stamps in place of the HbIndex: the post-mortem
//     "concurrent(fin, call) || ordered(fin, call)" is exactly
//     "!stamp(call).leq(stamp(fin))" for distinct events), and every later
//     call of the rank fires against the retained finalizes.  Retained call
//     stamps are 16-byte epochs: the finalize is always stamped later, which
//     makes the epoch test exact (stamp.hpp).
//   * V3–V6 — driven by the incremental frontier's concurrent pairs; the
//     linked call events ride on the OnlineAccess records.
//
// Retirement: a live call whose stamp is at or below the epoch watermark is
// ordered before every future finalize, so it can never complete a V2
// premise again and is dropped.  Finalize records are kept for the run —
// *every* later call of the rank pairs with them, so they are never dead;
// their count is bounded by the program's finalize calls (normally one).
// Duplicate emissions are expected; the ViolationStream downstream owns
// (class, variable, thread-pair) dedup.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/detect/incremental.hpp"
#include "src/detect/race_detector.hpp"
#include "src/detect/stamp.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/simmpi/types.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/event.hpp"
#include "src/trace/trace_log.hpp"

namespace home::spec {

class OnlineMatcher {
 public:
  using Sink = std::function<void(Violation&&)>;

  OnlineMatcher(const trace::StringTable* strings, Sink sink)
      : strings_(strings), sink_(std::move(sink)) {}

  /// A kRegionBegin event (parallel-region premise of V1/SINGLE).
  void on_region_begin(const trace::Event& e);

  /// A kMpiCall event with its HB stamp view (from the same
  /// IncrementalHb::advance call).  Calls must arrive in seq order.
  void on_call(const std::shared_ptr<const trace::Event>& call,
               const detect::StampView& stamp);

  /// A concurrent access pair on a monitored variable (from the incremental
  /// frontier); `first` is the older access.
  void on_concurrent_pair(trace::ObjId var, const detect::OnlineAccess& first,
                          const detect::OnlineAccess& second);

  /// Drop retained calls that are ordered before every future event.
  void retire(const detect::VectorClock& watermark);

  /// Retained call records (live calls + finalizes + pre-init buffer).
  std::size_t resident_calls() const;

  const MatcherStats& stats() const { return stats_; }

 private:
  struct LiveCall {
    std::shared_ptr<const trace::Event> ev;
    detect::Stamp stamp;
  };
  struct RankState {
    bool saw_init = false;
    bool used_init_thread = false;
    simmpi::ThreadLevel provided = simmpi::ThreadLevel::kSingle;
    bool parallel_region = false;
    bool single_reported = false;
    bool serialized_reported = false;
    /// First concurrent monitored pair seen before init (for retroactive
    /// V1/SERIALIZED once the provided level becomes known).
    bool have_first_pair = false;
    MonitoredVar first_pair_kind = MonitoredVar::kSrcTmp;
    trace::Tid first_pair_tid1 = trace::kNoTid;
    trace::Tid first_pair_tid2 = trace::kNoTid;
    /// Off-main calls seen before init (for retroactive V1/FUNNELED).
    std::vector<std::shared_ptr<const trace::Event>> pre_init_off_main;
    std::vector<LiveCall> live_calls;  ///< non-finalize calls, retirable.
    std::vector<LiveCall> finalizes;   ///< kept for the whole run.
  };

  void emit(Violation&& v) { sink_(std::move(v)); }
  void check_single(RankState& rs, int rank);
  void check_funneled(RankState& rs,
                      const std::shared_ptr<const trace::Event>& call);

  const trace::StringTable* strings_;
  Sink sink_;
  std::map<int, RankState> ranks_;
  MatcherStats stats_;
  std::vector<Violation> scratch_;
};

}  // namespace home::spec
