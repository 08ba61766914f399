// Violation matcher: joins the concurrency verdicts on monitored variables
// with the logged MPI call arguments and evaluates the six thread-safety
// predicates of Section III.A.
//
// Matcher is the one premise tracker of both pipelines; only the drivers
// differ:
//
//   * OnlineAnalyzer feeds it one event at a time while the program runs;
//   * Matcher::match replays a finished ConcurrencyReport in two passes: the
//     region and MPI call events in seq order, then every monitored
//     variable's concurrent pairs in ObjId order (a rank's variables in
//     MonitoredVar order).
//
// Premises:
//
//   * V1 — the provided thread level is known only once MPI_Init[_thread]
//     has been seen, so off-main calls and the first concurrent pair seen
//     before init are buffered and judged when init arrives.
//   * V2 — a finalize is checked against every retained earlier call of its
//     rank, and every later call of the rank fires against the retained
//     finalizes.  An earlier call is HB-before the finalize iff the
//     finalize's view of the call's thread covers the call's own stamp
//     component (the epoch lemma, stamp.hpp), so a retained call is its
//     event plus that one number.  A later call is never HB-before it: HB
//     edges only point forward in seq order.
//   * V3–V6 — from the concurrent pairs on monitored variables; each access
//     brings its aux-linked MPI call event.
//
// Retirement (streaming): a call whose epoch the watermark covers is
// HB-before every future finalize, so it can never complete a V2 premise
// again and is dropped.  Finalizes are kept for the run — every later call
// of the rank pairs with them — and are bounded by the program's finalize
// calls (normally one per rank).
//
// The matcher emits every premise it completes, repeats included;
// deduplication by violation_key belongs to the driver (match() post-mortem,
// the ViolationStream online).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/simmpi/types.hpp"
#include "src/spec/monitored.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/trace_log.hpp"

namespace home::spec {

struct MatcherStats {
  std::size_t concurrent_pairs = 0;   ///< monitored-var pairs examined.
  std::size_t call_pairs = 0;         ///< resolved MPI call pairs.
  std::size_t violations = 0;         ///< reported by match(), deduplicated.
};

class Matcher {
 public:
  /// A retained MPI call event.  match() passes non-owning aliases into the
  /// report's events.
  using CallRef = std::shared_ptr<const trace::Event>;
  /// Receives each violation whose premises complete.
  using Sink = std::function<void(Violation&&)>;

  /// `strings` resolves callsite labels for the report (may be null).
  explicit Matcher(const trace::StringTable* strings = nullptr)
      : strings_(strings) {}
  /// A matcher fed event by event that hands its findings to `sink`.
  Matcher(const trace::StringTable* strings, Sink sink)
      : strings_(strings), sink_(std::move(sink)) {}

  /// Replays `report` through a fresh matcher and returns one record per
  /// violation key.  Order: the V1 SINGLE/FUNNELED and V2 findings of the
  /// seq-order pass as their premises complete, then V1/SERIALIZED and
  /// V3–V6 in ObjId and pair order.
  std::vector<Violation> match(const detect::ConcurrencyReport& report) const;

  const MatcherStats& stats() const { return stats_; }

  /// A kRegionBegin event (parallel-region premise of V1/SINGLE).
  void on_region_begin(const trace::Event& e);

  /// A kMpiCall event; calls arrive in seq order.  `epoch` is the own
  /// component of the call's HB stamp and `view_at(t)` its component t.
  template <class ViewAt>
  void on_call(const CallRef& call, std::uint64_t epoch,
               const ViewAt& view_at) {
    RankState* rs = note_call(call, epoch);
    if (rs == nullptr) return;
    // A new finalize: every retained earlier call of another thread that is
    // not HB-before it completes a V2 premise.
    for (const LiveCall& c : rs->live_calls) {
      if (c.call->tid != call->tid && c.epoch > view_at(c.call->tid)) {
        emit_unordered(*call, *c.call);
      }
    }
  }

  /// A concurrent pair on monitored variable `var`, older access first, with
  /// each access's linked MPI call event (null when unlinked; read only when
  /// rules::carries_call_pairs holds for `var`'s kind).
  void on_concurrent_pair(trace::ObjId var, trace::Tid tid1,
                          const trace::Event* call1, trace::Tid tid2,
                          const trace::Event* call2);

  /// Drop retained calls whose epoch the watermark covers.
  void retire(const detect::VectorClock& watermark);

  /// Retained call records (live calls + finalizes + pre-init buffer).
  std::size_t resident_calls() const;

 private:
  struct LiveCall {
    CallRef call;
    std::uint64_t epoch = 0;  ///< own component of the call's HB stamp.
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
    std::vector<CallRef> pre_init_off_main;
    std::vector<LiveCall> live_calls;  ///< non-finalize calls, retirable.
    std::vector<LiveCall> finalizes;   ///< kept for the whole run.
  };

  /// Track `call`'s V1 and V2 premises; returns its rank's state when the
  /// call is a finalize still to be checked against the retained calls.
  RankState* note_call(const CallRef& call, std::uint64_t epoch);
  void check_single(RankState& rs, int rank);
  void check_funneled(RankState& rs, const CallRef& call);
  void emit_unordered(const trace::Event& fin, const trace::Event& call);
  void emit(Violation&& v) { sink_(std::move(v)); }

  const trace::StringTable* strings_;
  Sink sink_;
  std::map<int, RankState> ranks_;
  mutable MatcherStats stats_;
  std::vector<Violation> scratch_;
};

/// Wildcard-aware argument overlap: MPI_ANY_SOURCE / MPI_ANY_TAG match
/// anything, so two receives with (ANY, 5) and (3, 5) *can* contend.
bool args_overlap(int a, int b);

}  // namespace home::spec
