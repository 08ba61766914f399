// Happens-before analysis: replays a seq-ordered event stream and stamps
// every event with the issuing thread's vector clock, kept as a shared
// frame plus the thread's own component (incremental.hpp).
//
// Synchronization edges:
//   * program order within each thread,
//   * thread fork / join,
//   * barriers (all arrivals happen-before all departures),
//   * cross-rank message edges (MsgSend -> matching MsgRecv),
//   * optionally lock release -> subsequent acquire of the same lock.
//
// The lock-edge option matters: the classic *hybrid* race detector
// (O'Callahan & Choi, PPoPP'03 — the paper's citation [16]) deliberately
// excludes lock edges from HB and leaves mutual exclusion to the lockset
// analysis, so that a race hidden by one lucky lock ordering is still
// reported.  Including lock edges gives a pure-HB detector for the ablation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/detect/flat_map.hpp"
#include "src/detect/stamp.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

struct HappensBeforeConfig {
  bool lock_edges = false;  ///< model release->acquire as an HB edge.
};

/// The primitive HB edges IncrementalHb::advance applies — the one edge
/// definition the index records and witness chains (diagnose::) are made of.
/// A fork or a barrier completion writes into another thread's clock; its
/// edge targets the first event that reads that clock afterwards: the
/// thread's next own event, or the kThreadJoin that absorbs it.
enum class EdgeKind : std::uint8_t {
  kProgramOrder,  ///< same thread, consecutive position.
  kMessage,       ///< kMsgSend -> kMsgRecv, same message object.
  kFork,          ///< kThreadFork -> first reader of the child's clock.
  kJoin,          ///< last child event -> kThreadJoin absorbing it.
  kBarrier,       ///< arrival -> first reader of each participant's clock
                  ///< after the instance completed.
  kLock,          ///< kLockRelease -> later kLockAcquire (lock_edges only).
};

class HbMerge;  // happens_before.cpp: merges a partitioned replay.

/// Per-event clock stamps, ordering queries, and the sync structure the
/// replay applied: per-thread event and barrier positions and the sources of
/// every non-program-order edge.
///
/// Stamps are stored factored, as IncrementalHb keeps its live clocks: each
/// event keeps its own (tid, value) component inline plus the id of a
/// *frame*, every other component, in one flat vector the index owns.  The
/// index holds one copy of each live frame some event stamped with: a
/// thread's frame changes only when a join brings it something new, and
/// the participants of one completed barrier share one frame.  Resident
/// stamp bytes are O(sync events * threads), not O(events * threads).
///
/// Built only by HappensBeforeAnalysis::run, through the HbRecorders that
/// IncrementalHb::advance reports to (one per partition, merged by HbMerge).
class HbIndex {
 public:
  const std::vector<trace::Event>& events() const { return events_; }

  /// Component `tid` of event i's stamp.
  std::uint64_t stamp_get(std::size_t i, trace::Tid tid) const {
    const FrameStamp& s = stamps_[i];
    if (tid == s.tid) return s.own;
    const Frame& f = frames_[s.frame];
    const auto t = static_cast<std::size_t>(tid);
    return t < f.size ? frame_data_[f.offset + t] : 0;
  }

  /// Event i's stamp materialized as a dense clock (test/diagnostic use;
  /// queries should go through stamp_get/ordered, which stay allocation-free).
  VectorClock stamp_clock(std::size_t i) const;

  /// events()[i] happens-before events()[j].
  bool ordered(std::size_t i, std::size_t j) const;

  /// Neither order holds (the paper's IsPotentialHappenBeforeRace core).
  bool concurrent(std::size_t i, std::size_t j) const {
    return !ordered(i, j) && !ordered(j, i);
  }

  /// Find the index of the event with the given seq stamp (or npos).
  std::size_t index_of_seq(trace::Seq seq) const;

  /// Seq-ordered event indices of thread `tid` (empty if it has none).
  std::span<const std::uint32_t> events_of(trace::Tid tid) const;

  /// Position of events()[i] within events_of(its thread).
  std::size_t position_of(std::size_t i) const;

  /// Barriers the thread of events()[i] arrived at before it.
  std::uint64_t barriers_before(std::size_t i) const;

  /// The knowledge frontier: the index of the last event of `tid` that
  /// events()[dst] is HB-after — the event of `tid` whose own stamp
  /// component equals stamp_get(dst, tid).  The replay bumps the issuing
  /// thread's own component at *every* event, so a thread's own components
  /// are 1..n in seq order and that event is events_of(tid)[view - 1].
  /// Returns npos when dst's view of `tid` is zero (never synchronized).
  /// This is what anchors a diagnose:: witness chain.
  std::size_t knowledge_frontier(std::size_t dst, trace::Tid tid) const;

  /// Visit the direct HB sources of event i, fn(source index, EdgeKind):
  /// its program-order predecessor and the sources of every sync edge the
  /// replay applied into it.  Every source precedes i.
  template <class Fn>
  void for_each_source(std::size_t i, Fn&& fn) const;

  /// Resident bytes of the stamp store: inline FrameStamps plus the frames.
  std::size_t stamp_bytes() const;
  /// What the same stamps held as private dense clocks (the sum of stamp
  /// widths times 8 bytes) — the bench compares the two.
  std::size_t dense_stamp_bytes() const { return dense_stamp_bytes_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  friend class HbRecorder;
  friend class HbMerge;

  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  struct FrameStamp {
    trace::Tid tid = 0;        ///< issuing thread.
    std::uint32_t frame = 0;   ///< index into frames_.
    std::uint64_t own = 0;     ///< the stamp's own component.
  };
  struct Frame {
    std::uint32_t offset = 0;  ///< first component in frame_data_.
    std::uint32_t size = 0;    ///< components stored (trailing zeros cut).
  };
  /// One sync edge group into `target`.  kFork and kJoin: `ref` is the
  /// source event.  kMessage, kLock and kBarrier: `ref` is a source list
  /// (the sends to one message object, the releases of one lock, the
  /// arrivals of one completed barrier instance); its entries before
  /// `target` are the sources.
  struct SyncIn {
    std::uint32_t target = 0;
    EdgeKind kind = EdgeKind::kProgramOrder;
    std::uint32_t ref = 0;
  };

  std::vector<trace::Event> events_;
  std::vector<FrameStamp> stamps_;
  std::vector<Frame> frames_;
  std::vector<std::uint64_t> frame_data_;
  /// Per event: the thread's previous event since its clock last restarted.
  std::vector<std::uint32_t> po_prev_;
  std::vector<std::vector<std::uint32_t>> thread_events_;
  /// Per thread: in-thread positions of its barrier arrivals.
  std::vector<std::vector<std::uint32_t>> thread_barriers_;
  /// Each target's groups are adjacent, in the order the replay applied
  /// them; the runs of a partitioned replay lie in partition blocks.
  std::vector<SyncIn> sync_in_;
  /// Event i's groups are the run of sync_in_ from sync_start_[i] whose
  /// target is i (kNone when it has none).
  std::vector<std::uint32_t> sync_start_;
  std::vector<std::vector<std::uint32_t>> source_lists_;
  std::size_t dense_stamp_bytes_ = 0;
};

template <class Fn>
void HbIndex::for_each_source(std::size_t i, Fn&& fn) const {
  if (po_prev_[i] != kNone) fn(std::size_t{po_prev_[i]}, EdgeKind::kProgramOrder);
  for (std::uint32_t g = sync_start_[i];
       g < sync_in_.size() && sync_in_[g].target == i; ++g) {
    const SyncIn& in = sync_in_[g];
    if (in.kind == EdgeKind::kFork || in.kind == EdgeKind::kJoin) {
      fn(std::size_t{in.ref}, in.kind);
      continue;
    }
    for (const std::uint32_t s : source_lists_[in.ref]) {
      if (s >= i) break;
      fn(std::size_t{s}, in.kind);
    }
  }
}

/// Builds an HbIndex from what IncrementalHb::advance applies, in the
/// replay's own pass (HappensBeforeAnalysis::run).  advance() reports each
/// event's incoming joins, its stamp, and the clocks it writes afterwards;
/// the recorder keeps the stamp as (own, frame), the thread's positions, and
/// the sources of each edge, resolving a fork or barrier write at the first
/// event that reads the written clock.  The online analyzer passes none.
///
/// The stamp's frame is the live frame the issuing thread's clock shares
/// (StampView): the recorder copies a live frame into the index the first
/// time an event stamps with it and reuses that copy for every later stamp
/// on it, whichever thread makes it.  It never compares clocks.
///
/// A partitioned replay keeps one recorder per partition, indexing that
/// partition's events 0..n-1; a receive whose send another partition
/// replayed records its message source list as unresolved, and HbMerge
/// rebases every partition into the one index.
class HbRecorder {
 public:
  explicit HbRecorder(std::size_t events = 0);

  /// `e`'s thread joined a message, lock or child clock (kMessage, kLock,
  /// kJoin) into its own before the stamp.
  void joined(const trace::Event& e, EdgeKind kind);
  /// `e`'s stamp: after its incoming joins and bump, before outgoing edges.
  void stamped(const trace::Event& e, const StampView& view);
  /// After the stamp, `e` joined its clock into the message (kMessage) or
  /// lock (kLock) clock, or into the forked child's clock (kFork).
  void published(const trace::Event& e, EdgeKind kind);
  /// `child`'s clock was absorbed by a kThreadJoin and restarts empty.
  void reset(trace::Tid child);
  /// The barrier instance `e` arrived at completed: every participant's
  /// clock took the join of all arrivals.
  void completed(const trace::Event& e);

  HbIndex finish(std::vector<trace::Event> events) &&;

 private:
  friend class HbMerge;
  static constexpr std::uint32_t kNone = HbIndex::kNone;

  struct Thread {
    std::uint32_t last = kNone;  ///< last event since the clock restarted.
    /// Fork and barrier writes into this clock not yet read by an event.
    std::vector<std::pair<EdgeKind, std::uint32_t>> pending;
  };
  /// The index frame copied from one live frame of the replay's pool.
  struct Live {
    std::uint64_t serial = 0;  ///< StampView::serial of the live frame.
    std::uint32_t frame = kNone;
  };

  Thread& thread(trace::Tid tid);
  std::uint32_t list_for(FlatMap<std::uint32_t>& lists, trace::ObjId obj);
  /// The index frame of `view`'s live frame, copied on first use.
  std::uint32_t frame_of(const StampView& view);
  std::uint32_t add_frame(const std::uint64_t* clock, std::size_t n);

  HbIndex index_;
  std::vector<Thread> threads_;
  std::vector<Live> live_;       ///< by StampView::slot.
  std::uint32_t empty_ = kNone;  ///< index frame of the empty live frame.
  FlatMap<std::uint32_t> sends_;     ///< message object -> source list.
  FlatMap<std::uint32_t> releases_;  ///< lock -> source list.
  FlatMap<std::uint32_t> arrivals_;  ///< open barrier instance -> list.
};

/// Pairwise HB-race check mirroring the paper's formulation: same location,
/// different threads, at least one write, unordered in HB.
bool is_potential_hb_race(const HbIndex& hb, std::size_t i, std::size_t j);

/// Replays a seq-ordered trace through IncrementalHb into an HbIndex.
///
/// Threads that share a fork/join, a barrier or (with lock edges) a lock
/// form one group.  Happens-before crosses groups only along a message sent
/// exactly once, before each of its receives; any other message puts all
/// its threads in one group.  A replay is one fan-out over the calling
/// thread and pooled threads: each job summarizes one contiguous range of
/// the events; the calling thread merges the summaries in range order and
/// packs the groups by event count into partitions; each partition's job
/// collects its events and replays them, a receive whose send another
/// partition replays waiting for that send's clock; and once the calling
/// thread has laid the index out, each job moves its partition's records
/// into place.  The merged index answers every query as a one-partition
/// replay does (DESIGN.md §10).
class HappensBeforeAnalysis {
 public:
  explicit HappensBeforeAnalysis(HappensBeforeConfig cfg = {}) : cfg_(cfg) {}

  /// Events must be sorted by seq (TraceLog::sorted_events()).  Replays on
  /// up to `workers` threads (0 = hardware_concurrency, 1 = the calling
  /// thread only); a trace below util::kParallelAnalysisThreshold events
  /// replays on the calling thread.  Throws std::invalid_argument on an
  /// event whose tid or fork/join child is out of range
  /// (trace::tids_in_range).
  HbIndex run(std::vector<trace::Event> events, std::size_t workers = 0) const;

  /// run() in at most `partitions` partitions whatever the trace's size, so
  /// tests can split small traces.
  HbIndex run_partitioned(std::vector<trace::Event> events,
                          std::size_t partitions) const;

 private:
  HappensBeforeConfig cfg_;
};

}  // namespace home::detect
