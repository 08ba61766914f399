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
//     Every clock it keeps (a thread's, a lock's, a message's) is a shared
//     *frame* plus one component of its own: component u is `own` for the
//     clock's own thread and frame[u] otherwise.  Between two sync edges a
//     thread's clock moves only in its own component, so a bump is O(1) and
//     the frame is shared, not copied: the first send or release on an
//     object shares the sender's frame in O(1); a barrier arrival whose
//     frame is the accumulator's base records (tid, own) in O(1); a
//     completed barrier builds one frame that every participant whose frame
//     did not change since its arrival takes in O(1).  Only a join that
//     brings in something new (a receive, an acquire, a child's clock, a
//     fork's copy of the parent, an arrival off the base frame) costs the
//     clock's width, and it builds a frame only when it does change
//     something.  Frames are reference-counted and recycled, so no edge
//     allocates once the pool has grown.
//
//   * IncrementalFrontier — one VarFrontier (frontier.hpp, the same type
//     the post-mortem detector sweeps) per variable, fed one access at a
//     time.  New racy pairs are surfaced immediately instead of collected
//     in a verdict.
//
// advance() returns an allocation-free StampView (epoch + frame span).
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
  /// frame the issuing thread's clock shares, valid until the next advance()
  /// call and allocation-free.  Events must be fed in seq order; e.tid must
  /// be a registry tid (>= 0).  `rec`, when given, is told the stamp and
  /// every edge applied (the post-mortem index); the streaming analyzer
  /// passes none.
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

  /// Message `obj`'s clock, the join of its sends so far, as a dense clock
  /// (false before the first send).  With import_message_clock it hands a
  /// message from the replay that sent it to one that receives it
  /// (HappensBeforeAnalysis's partitions).
  bool message_clock(trace::ObjId obj, VectorClock* out) const;
  void import_message_clock(trace::ObjId obj, const VectorClock& clock);

  /// Retained lock/message/barrier entries plus thread clocks (diagnostic;
  /// feeds the bounded-memory accounting).
  std::size_t resident_entries() const;

  /// Heap bytes held by clocks: every frame of the pool, in use or free
  /// for reuse, plus the open barriers' off-base joins.
  std::size_t resident_clock_bytes() const;

  /// Frames built so far (diagnostic: what the edges cost in copies).
  std::uint64_t frames_built() const { return serial_; }

 private:
  static constexpr std::uint32_t kNoFrame = static_cast<std::uint32_t>(-1);

  /// A clock: component `tid` is `own`, any other component u is the
  /// frame's u-th (zero past its end, and everywhere under kNoFrame).  The
  /// frame's slot for `tid` is never above `own`.  A thread's clock has its
  /// own tid; an imported message clock has kNoTid.
  struct Clock {
    std::uint32_t frame = kNoFrame;
    trace::Tid tid = trace::kNoTid;
    std::uint64_t own = 0;
  };
  /// A shared, immutable run of components; `serial` tells a reused slot's
  /// frames apart.
  struct Frame {
    std::vector<std::uint64_t> c;
    std::uint32_t refs = 0;
    std::uint64_t serial = 0;
  };
  struct Arrival {
    trace::Tid tid = trace::kNoTid;
    std::uint64_t own = 0;
    std::uint64_t serial = 0;  ///< of the thread's frame when it arrived.
  };
  /// An open barrier instance.  The arrivals' join is the base frame (the
  /// first arrival's), raised by `extra` (the join of every arrival frame
  /// that is not the base) and by each arrival's own component.
  struct BarrierAcc {
    std::uint32_t base = kNoFrame;
    std::vector<std::uint64_t> extra;
    std::vector<Arrival> arrivals;
  };

  // Per-thread liveness, dense by tid alongside threads_.
  static constexpr std::uint8_t kHasClock = 1;  ///< observed or fork target.
  static constexpr std::uint8_t kDeclared = 2;
  static constexpr std::uint8_t kJoined = 4;

  void ensure_tid(trace::Tid tid);

  const std::uint64_t* data(std::uint32_t f) const {
    return f == kNoFrame ? nullptr : frames_[f].c.data();
  }
  std::size_t width(std::uint32_t f) const {
    return f == kNoFrame ? 0 : frames_[f].c.size();
  }
  std::uint64_t serial(std::uint32_t f) const {
    return f == kNoFrame ? 0 : frames_[f].serial;
  }
  std::uint64_t component(const Clock& c, trace::Tid u) const {
    if (u == c.tid) return c.own;
    const auto i = static_cast<std::size_t>(u);
    return i < width(c.frame) ? frames_[c.frame].c[i] : 0;
  }
  /// A frame of `n` components (contents unset) with one reference.
  std::uint32_t new_frame(std::size_t n);
  void hold(std::uint32_t f) {
    if (f != kNoFrame) ++frames_[f].refs;
  }
  void drop(std::uint32_t f);
  /// dst = dst join src; dst takes a new frame only if a component other
  /// than its own rose.
  void join(Clock& dst, const Clock& src);
  /// The message or lock clock `obj` joins `sender`'s clock.
  void publish(FlatMap<Clock>& clocks, trace::ObjId obj, const Clock& sender);
  /// The accumulator of barrier instance `obj`, opened on first use.
  std::uint32_t open_barrier(trace::ObjId obj);
  /// e arrives at its barrier instance; the last arrival completes it.
  void arrive(const trace::Event& e, HbRecorder* rec);
  bool leq(const Clock& c, const VectorClock& v) const;

  HappensBeforeConfig cfg_;
  /// Dense by tid (registry tids are small ints): no per-event lookups
  /// beyond one index.
  std::vector<Clock> threads_;
  std::vector<std::uint8_t> thread_state_;
  FlatMap<Clock> lock_clock_;
  FlatMap<Clock> message_clock_;
  FlatMap<std::uint32_t> barriers_;  ///< open instance -> accs_ slot.
  std::vector<BarrierAcc> accs_;
  std::vector<std::uint32_t> free_accs_;
  /// The frame pool.  A slot goes back on free_frames_ when its last
  /// reference drops and keeps its buffer for the next frame it holds; an
  /// element's buffer survives pool growth, so views stay valid.
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> free_frames_;
  std::uint64_t serial_ = 0;
  /// A barrier completion moves the issuer off the frame its view shows:
  /// the frame is held here until the next advance().
  std::uint32_t pinned_ = kNoFrame;
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
