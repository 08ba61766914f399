// Incremental (streaming) counterparts of the post-mortem detection passes.
//
// The post-mortem pipeline buffers the whole trace, replays it through
// HappensBeforeAnalysis, then sweeps each variable's accesses with the
// frontier engine.  The online engine (src/online/) cannot afford either
// buffer: it consumes one event at a time and must keep resident state
// bounded on arbitrarily long runs.  This header provides the two stateful
// pieces that make that possible:
//
//   * IncrementalHb — the event-at-a-time form of HappensBeforeAnalysis.
//     `advance(e)` applies e's incoming edges, bumps the thread clock, stamps
//     e, and applies its outgoing edges; feeding a seq-sorted stream through
//     advance() yields exactly the stamps HappensBeforeAnalysis::run()
//     computes (run() is in fact implemented on top of advance()).  It also
//     tracks which threads may still emit (declared minus joined), which
//     yields the retirement watermark below.
//
//   * IncrementalFrontier — one VarFrontier (frontier.hpp, the same type
//     the post-mortem detector sweeps) per variable, fed one access at a
//     time.  New racy pairs are surfaced immediately instead of collected
//     in a verdict.
//
// advance() returns an allocation-free StampView (epoch + clock span).
// Retained records keep only their 16-byte epoch; every retained-vs-incoming
// and retained-vs-watermark check is epoch-exact (see stamp.hpp).
//
// Epoch-based retirement: a retained record with stamp V can never race any
// future event once every thread that may still emit has a clock >= V —
// every future stamp then dominates V, so the pair is HB-ordered.  The meet
// of the live threads' clocks (`IncrementalHb::watermark`) is therefore a
// sound retirement bound for every HB-based DetectorMode; records at or
// below it are reclaimed.  kLocksetOnly ignores HB, so retirement is
// disabled there (callers simply skip retire()).  The watermark is
// conservative: a declared thread that has not stamped anything yet pins it
// at zero, and a thread that stops emitting without being joined freezes it
// at its last clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/detect/flat_map.hpp"
#include "src/detect/frontier.hpp"
#include "src/detect/happens_before.hpp"
#include "src/detect/race_detector.hpp"
#include "src/detect/stamp.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

/// One access retained by the streaming frontier: the slice of the original
/// Event the race predicate and the violation matcher need, plus the
/// aux-linked MPI call event (shared so the record can outlive the
/// analyzer's call table).  The frontier keeps the access's epoch itself.
struct OnlineAccess {
  trace::Seq seq = 0;
  trace::Tid tid = trace::kNoTid;
  bool write = false;
  std::vector<trace::ObjId> locks;
  std::shared_ptr<const trace::Event> call;  ///< may be null (unlinked access).
};

class IncrementalHb {
 public:
  explicit IncrementalHb(HappensBeforeConfig cfg = {}) : cfg_(cfg) {}

  /// Apply e's incoming HB edges, bump e.tid's clock, and apply e's outgoing
  /// edges.  Returns the stamp view of e — the epoch plus a span of the
  /// issuing thread's clock, valid until the next advance() call and
  /// allocation-free on the access/lock/message hot path.  Events must be
  /// fed in seq order; e.tid must be a registry tid (>= 0).  `rec`, when
  /// given, is told the stamp and every edge applied (the post-mortem
  /// index); the streaming analyzer passes none.
  StampView advance(const trace::Event& e, HbRecorder* rec = nullptr);

  /// Declare a thread that may emit events (typically every registry tid).
  /// Idempotent; threads retired by a kThreadJoin stay retired.
  void declare_thread(trace::Tid tid);

  /// The retirement watermark: pointwise meet of every live (declared or
  /// observed, not joined) thread's clock.  Returns false when some live
  /// thread has not stamped anything yet — the meet is zero and nothing can
  /// be retired.
  bool watermark(VectorClock* out) const;

  /// Reclaim synchronization state that can no longer order anything: lock
  /// and message clocks at or below the watermark (joining them into any
  /// future stamp is a no-op).  Barrier accumulators are kept — an
  /// in-flight barrier still owes its arrivals a join.
  void retire(const VectorClock& watermark);

  /// Message `obj`'s clock, the join of its sends so far (null before the
  /// first).  With import_message_clock it hands a message from the replay
  /// that sent it to one that receives it (HappensBeforeAnalysis's
  /// partitions).
  const VectorClock* message_clock(trace::ObjId obj) const {
    return message_clock_.find(obj);
  }
  void import_message_clock(trace::ObjId obj, const VectorClock& clock) {
    message_clock_[obj] = clock;
  }

  /// Retained lock/message/barrier entries plus thread clocks (diagnostic;
  /// feeds the bounded-memory accounting).
  std::size_t resident_entries() const;

  /// Heap bytes held by resident clocks (thread + lock + message + barrier).
  std::size_t resident_clock_bytes() const;

 private:
  struct BarrierAcc {
    std::vector<trace::Tid> arrived;
    VectorClock joined;
  };

  // Per-thread liveness, dense by tid alongside thread_clock_.
  static constexpr std::uint8_t kHasClock = 1;  ///< observed or fork target.
  static constexpr std::uint8_t kDeclared = 2;
  static constexpr std::uint8_t kJoined = 4;

  void ensure_tid(trace::Tid tid);

  HappensBeforeConfig cfg_;
  /// Dense by tid (registry tids are small ints) — no tree nodes, no
  /// per-event lookups beyond one index.  An element's heap buffer is stable
  /// across outer-vector growth, which is what keeps StampView spans valid
  /// while outgoing edges create new threads.
  std::vector<VectorClock> thread_clock_;
  std::vector<std::uint8_t> thread_state_;
  FlatMap<VectorClock> lock_clock_;
  FlatMap<VectorClock> message_clock_;
  FlatMap<BarrierAcc> barriers_;
  /// Stamp storage for the events whose outgoing edges mutate the issuing
  /// thread's own clock (barrier completion, self-join) — the view must show
  /// the pre-edge stamp, so those events copy it here first.
  VectorClock scratch_;
};

class IncrementalFrontier {
 public:
  explicit IncrementalFrontier(const RaceDetectorConfig& cfg) : cfg_(cfg) {}

  /// A newly detected racy pair; `first` is the older access.
  struct PairHit {
    std::shared_ptr<const OnlineAccess> first;
    std::shared_ptr<const OnlineAccess> second;
  };

  /// Feed one access of `var` (records must arrive in seq order across the
  /// whole stream).  `view` is the access's stamp view from the same
  /// advance() call.  New racy pairs are appended to `hits` in the order the
  /// post-mortem detector reports them.
  void on_access(trace::ObjId var, std::shared_ptr<const OnlineAccess> rec,
                 const StampView& view, std::vector<PairHit>* hits);

  /// Drop frontier records at or below the watermark.  Sound for HB-based
  /// modes only; the caller must not retire under kLocksetOnly.
  /// Returns the number of frontier slots reclaimed.
  std::size_t retire(const VectorClock& watermark);

  bool concurrent(trace::ObjId var) const;

  /// Visit every variable fed so far as fn(var, frontier), unspecified order.
  template <class Fn>
  void for_each_var(Fn&& fn) const {
    vars_.for_each(fn);
  }

  /// Frontier slots currently in use across all variables.
  std::size_t resident_records() const;

  /// Cumulative epoch-test tally; the analyzer folds deltas into
  /// obs::Registry at checkpoints.
  std::size_t epoch_hits() const;

 private:
  using Frontier = VarFrontier<std::shared_ptr<const OnlineAccess>>;

  RaceDetectorConfig cfg_;
  /// Kept after retirement empties them: the verdict and the pair budget
  /// are cumulative over the whole run.
  FlatMap<Frontier> vars_;
};

}  // namespace home::detect
