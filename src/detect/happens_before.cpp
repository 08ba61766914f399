#include "src/detect/happens_before.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <latch>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/detect/incremental.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/thread_pool.hpp"

namespace home::detect {

// ------------------------------------------------------------------ HbIndex

VectorClock HbIndex::stamp_clock(std::size_t i) const {
  const FrameStamp& s = stamps_[i];
  const Frame& f = frames_[s.frame];
  VectorClock clock(frame_data_.data() + f.offset, f.size);
  clock.set(s.tid, s.own);
  return clock;
}

bool HbIndex::ordered(std::size_t i, std::size_t j) const {
  const FrameStamp& a = stamps_[i];
  std::size_t n = frames_[a.frame].size;
  if (static_cast<std::size_t>(a.tid) >= n) {
    n = static_cast<std::size_t>(a.tid) + 1;
  }
  for (std::size_t t = 0; t < n; ++t) {
    const trace::Tid tid = static_cast<trace::Tid>(t);
    if (stamp_get(i, tid) > stamp_get(j, tid)) return false;
  }
  return true;
}

std::size_t HbIndex::index_of_seq(trace::Seq seq) const {
  // events_ is sorted by seq; binary search.
  const auto it = std::lower_bound(
      events_.begin(), events_.end(), seq,
      [](const trace::Event& e, trace::Seq s) { return e.seq < s; });
  if (it != events_.end() && it->seq == seq) {
    return static_cast<std::size_t>(it - events_.begin());
  }
  return npos;
}

std::span<const std::uint32_t> HbIndex::events_of(trace::Tid tid) const {
  const auto t = static_cast<std::size_t>(tid);
  if (t >= thread_events_.size()) return {};
  return thread_events_[t];
}

std::size_t HbIndex::position_of(std::size_t i) const {
  const std::span<const std::uint32_t> mine = events_of(stamps_[i].tid);
  return static_cast<std::size_t>(
      std::lower_bound(mine.begin(), mine.end(),
                       static_cast<std::uint32_t>(i)) -
      mine.begin());
}

std::uint64_t HbIndex::barriers_before(std::size_t i) const {
  const std::vector<std::uint32_t>& bars =
      thread_barriers_[static_cast<std::size_t>(stamps_[i].tid)];
  return static_cast<std::uint64_t>(
      std::lower_bound(bars.begin(), bars.end(),
                       static_cast<std::uint32_t>(position_of(i))) -
      bars.begin());
}

std::size_t HbIndex::knowledge_frontier(std::size_t dst, trace::Tid tid) const {
  const std::uint64_t view = stamp_get(dst, tid);
  const std::span<const std::uint32_t> mine = events_of(tid);
  if (view == 0 || view > mine.size()) return npos;
  const std::uint32_t i = mine[view - 1];
  // A thread whose clock restarted after a join re-counts from 1; its
  // frontier is then not positional.
  return stamps_[i].own == view ? i : npos;
}

std::size_t HbIndex::stamp_bytes() const {
  return stamps_.capacity() * sizeof(FrameStamp) +
         frames_.capacity() * sizeof(Frame) +
         frame_data_.capacity() * sizeof(std::uint64_t);
}

// --------------------------------------------------------------- HbRecorder

HbRecorder::HbRecorder(std::size_t events) {
  index_.stamps_.reserve(events);
  index_.po_prev_.reserve(events);
}

HbRecorder::Thread& HbRecorder::thread(trace::Tid tid) {
  const auto t = static_cast<std::size_t>(tid);
  if (t >= threads_.size()) {
    threads_.resize(t + 1);
    index_.thread_events_.resize(t + 1);
    index_.thread_barriers_.resize(t + 1);
  }
  return threads_[t];
}

std::uint32_t HbRecorder::list_for(FlatMap<std::uint32_t>& lists,
                                   trace::ObjId obj) {
  if (const std::uint32_t* id = lists.find(obj)) return *id;
  const auto id = static_cast<std::uint32_t>(index_.source_lists_.size());
  index_.source_lists_.emplace_back();
  lists[obj] = id;
  return id;
}

void HbRecorder::joined(const trace::Event& e, EdgeKind kind) {
  // Called before e's stamp is recorded: e is the next index.
  const auto i = static_cast<std::uint32_t>(index_.stamps_.size());
  switch (kind) {
    case EdgeKind::kMessage: {
      // No local send list: the clock came from another partition, and the
      // merge resolves the list.
      const std::uint32_t* list = sends_.find(e.obj);
      index_.sync_in_.push_back({i, kind, list != nullptr ? *list : kNone});
      break;
    }
    case EdgeKind::kLock:
      index_.sync_in_.push_back({i, kind, *releases_.find(e.obj)});
      break;
    case EdgeKind::kJoin: {
      const auto child_tid = static_cast<trace::Tid>(e.obj);
      if (child_tid == e.tid) break;  // self-join: program order covers it.
      Thread& child = thread(child_tid);
      if (child.last != kNone) {
        index_.sync_in_.push_back({i, EdgeKind::kJoin, child.last});
      }
      // The join is the first reader of what was written into the child's
      // clock since its last event.
      for (const auto& [k, ref] : child.pending) {
        index_.sync_in_.push_back({i, k, ref});
      }
      child.pending.clear();
      break;
    }
    default:
      break;
  }
}

std::uint32_t HbRecorder::add_frame(const std::uint64_t* clock,
                                    std::size_t n) {
  while (n > 0 && clock[n - 1] == 0) --n;
  std::vector<std::uint64_t>& data = index_.frame_data_;
  index_.frames_.push_back({static_cast<std::uint32_t>(data.size()),
                            static_cast<std::uint32_t>(n)});
  data.insert(data.end(), clock, clock + n);
  return static_cast<std::uint32_t>(index_.frames_.size() - 1);
}

std::uint32_t HbRecorder::frame_of(const StampView& view) {
  if (view.serial == 0) {
    if (empty_ == kNone) empty_ = add_frame(nullptr, 0);
    return empty_;
  }
  if (view.slot >= live_.size()) live_.resize(view.slot + 1);
  Live& live = live_[view.slot];
  if (live.serial != view.serial) {
    live = {view.serial, add_frame(view.frame, view.size)};
  }
  return live.frame;
}

void HbRecorder::stamped(const trace::Event& e, const StampView& view) {
  const auto i = static_cast<std::uint32_t>(index_.stamps_.size());
  Thread& me = thread(e.tid);
  // This event is the first reader of what forks and barriers wrote into
  // its thread's clock since the thread's last event.
  for (const auto& [kind, ref] : me.pending) {
    index_.sync_in_.push_back({i, kind, ref});
  }
  me.pending.clear();

  index_.stamps_.push_back({e.tid, frame_of(view), view.value});
  const auto t = static_cast<std::size_t>(e.tid);
  index_.dense_stamp_bytes_ +=
      std::max(view.size, t + 1) * sizeof(std::uint64_t);

  index_.po_prev_.push_back(me.last);
  me.last = i;
  std::vector<std::uint32_t>& mine = index_.thread_events_[t];
  if (e.kind == trace::EventKind::kBarrier) {
    index_.thread_barriers_[t].push_back(
        static_cast<std::uint32_t>(mine.size()));
    index_.source_lists_[list_for(arrivals_, e.obj)].push_back(i);
  }
  mine.push_back(i);
}

void HbRecorder::published(const trace::Event& e, EdgeKind kind) {
  const auto i = static_cast<std::uint32_t>(index_.stamps_.size() - 1);
  switch (kind) {
    case EdgeKind::kMessage:
      index_.source_lists_[list_for(sends_, e.obj)].push_back(i);
      break;
    case EdgeKind::kLock:
      index_.source_lists_[list_for(releases_, e.obj)].push_back(i);
      break;
    case EdgeKind::kFork:
      thread(static_cast<trace::Tid>(e.obj)).pending.emplace_back(EdgeKind::kFork, i);
      break;
    default:
      break;
  }
}

void HbRecorder::reset(trace::Tid child) {
  Thread& t = thread(child);
  t.last = kNone;
  t.pending.clear();
}

void HbRecorder::completed(const trace::Event& e) {
  const std::uint32_t list = *arrivals_.find(e.obj);
  arrivals_.erase(e.obj);  // a reused object id starts a new instance.
  const std::pair<EdgeKind, std::uint32_t> write{EdgeKind::kBarrier, list};
  for (const std::uint32_t a : index_.source_lists_[list]) {
    Thread& p = thread(index_.stamps_[a].tid);
    if (p.pending.empty() || p.pending.back() != write) {
      p.pending.push_back(write);
    }
  }
}

HbIndex HbRecorder::finish(std::vector<trace::Event> events) && {
  // Edges were recorded in replay order, so each target's run is adjacent.
  std::vector<std::uint32_t>& start = index_.sync_start_;
  start.assign(index_.stamps_.size(), kNone);
  for (std::size_t g = index_.sync_in_.size(); g-- > 0;) {
    start[index_.sync_in_[g].target] = static_cast<std::uint32_t>(g);
  }
  index_.events_ = std::move(events);
  return std::move(index_);
}

// ------------------------------------------------------------------ HbMerge

/// Merges the recorders of a partitioned replay into one HbIndex.
/// `members[p]` lists, in seq order, the global indices of the events
/// `parts[p]` recorded; every thread's events lie in one partition, and a
/// message whose receive another partition recorded was sent exactly once.
/// The constructor lays out and sizes the index for every partition;
/// part(p) then moves partition p's records into place, and the parts may
/// run concurrently (each writes only its own slots).
class HbMerge {
 public:
  HbMerge(std::vector<HbRecorder>& parts,
          const std::vector<std::vector<std::uint32_t>>& members,
          const std::vector<trace::Event>& events);

  void part(std::size_t p);
  HbIndex finish(std::vector<trace::Event> events) &&;

 private:
  /// Where a partition's frames, frame data, source lists and edges start.
  struct Base {
    std::uint32_t frame = 0;
    std::uint32_t data = 0;
    std::uint32_t list = 0;
    std::uint32_t sync = 0;
  };

  std::uint32_t remote_list(trace::ObjId msg) const;

  std::vector<HbRecorder>& parts_;
  const std::vector<std::vector<std::uint32_t>>& members_;
  const std::vector<trace::Event>& events_;
  std::vector<Base> bases_;
  HbIndex out_;
};

HbMerge::HbMerge(std::vector<HbRecorder>& parts,
                 const std::vector<std::vector<std::uint32_t>>& members,
                 const std::vector<trace::Event>& events)
    : parts_(parts), members_(members), events_(events) {
  Base next;
  std::size_t threads = 0;
  for (const HbRecorder& part : parts_) {
    const HbIndex& in = part.index_;
    bases_.push_back(next);
    next.frame += static_cast<std::uint32_t>(in.frames_.size());
    next.data += static_cast<std::uint32_t>(in.frame_data_.size());
    next.list += static_cast<std::uint32_t>(in.source_lists_.size());
    next.sync += static_cast<std::uint32_t>(in.sync_in_.size());
    threads = std::max(threads, in.thread_events_.size());
    out_.dense_stamp_bytes_ += in.dense_stamp_bytes_;
  }
  const std::size_t n = events_.size();
  out_.stamps_.resize(n);
  out_.po_prev_.resize(n);
  out_.sync_start_.resize(n);
  out_.frames_.resize(next.frame);
  out_.frame_data_.resize(next.data);
  out_.source_lists_.resize(next.list);
  out_.sync_in_.resize(next.sync);
  out_.thread_events_.resize(threads);
  out_.thread_barriers_.resize(threads);
}

std::uint32_t HbMerge::remote_list(trace::ObjId msg) const {
  for (std::size_t q = 0; q < parts_.size(); ++q) {
    if (const std::uint32_t* list = parts_[q].sends_.find(msg)) {
      return bases_[q].list + *list;
    }
  }
  return HbIndex::kNone;
}

void HbMerge::part(std::size_t p) {
  constexpr std::uint32_t kNone = HbIndex::kNone;
  HbIndex& in = parts_[p].index_;
  const Base& base = bases_[p];
  const std::vector<std::uint32_t>& global = members_[p];

  for (std::size_t f = 0; f < in.frames_.size(); ++f) {
    out_.frames_[base.frame + f] = {in.frames_[f].offset + base.data,
                                    in.frames_[f].size};
  }
  std::copy(in.frame_data_.begin(), in.frame_data_.end(),
            out_.frame_data_.begin() + base.data);
  for (std::size_t k = 0; k < in.stamps_.size(); ++k) {
    const HbIndex::FrameStamp& st = in.stamps_[k];
    const std::uint32_t g = global[k];
    out_.stamps_[g] = {st.tid, st.frame + base.frame, st.own};
    out_.po_prev_[g] = in.po_prev_[k] == kNone ? kNone : global[in.po_prev_[k]];
    out_.sync_start_[g] = kNone;
  }
  for (std::size_t l = 0; l < in.source_lists_.size(); ++l) {
    std::vector<std::uint32_t>& list = out_.source_lists_[base.list + l];
    list = std::move(in.source_lists_[l]);
    for (std::uint32_t& i : list) i = global[i];
  }
  // A thread's events, and so its barriers, lie in one partition.
  for (std::size_t t = 0; t < in.thread_events_.size(); ++t) {
    if (in.thread_events_[t].empty()) continue;
    std::vector<std::uint32_t>& mine = out_.thread_events_[t];
    mine = std::move(in.thread_events_[t]);
    for (std::uint32_t& i : mine) i = global[i];
    out_.thread_barriers_[t] = std::move(in.thread_barriers_[t]);
  }
  for (std::size_t k = 0; k < in.sync_in_.size(); ++k) {
    const HbIndex::SyncIn& edge = in.sync_in_[k];
    const std::uint32_t target = global[edge.target];
    std::uint32_t ref = edge.ref;
    if (edge.kind == EdgeKind::kFork || edge.kind == EdgeKind::kJoin) {
      ref = global[ref];
    } else if (ref != kNone) {
      ref += base.list;
    } else {  // a message sent in another partition.
      ref = remote_list(events_[target].obj);
    }
    const auto at = static_cast<std::uint32_t>(base.sync + k);
    out_.sync_in_[at] = {target, edge.kind, ref};
    if (k == 0 || in.sync_in_[k - 1].target != edge.target) {
      out_.sync_start_[target] = at;
    }
  }
}

HbIndex HbMerge::finish(std::vector<trace::Event> events) && {
  out_.events_ = std::move(events);
  return std::move(out_);
}

// ----------------------------------------------------------------- analysis

bool is_potential_hb_race(const HbIndex& hb, std::size_t i, std::size_t j) {
  const trace::Event& a = hb.events()[i];
  const trace::Event& b = hb.events()[j];
  if (a.tid == b.tid) return false;
  if (a.obj != b.obj) return false;
  if (!a.is_access() || !b.is_access()) return false;
  if (!a.is_write() && !b.is_write()) return false;
  return hb.concurrent(i, j);
}

namespace {

obs::Counter& partitions_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("detect.hb_partitions");
  return c;
}

[[noreturn]] void refuse(const trace::Event& e) {
  throw std::invalid_argument("HappensBeforeAnalysis: thread id out of "
                              "range at seq " + std::to_string(e.seq));
}

/// Union-find over tids, grown as tids appear; a group's root is its
/// smallest tid.
class ThreadGroups {
 public:
  void add(trace::Tid t) {
    const auto i = static_cast<std::size_t>(t);
    for (std::size_t j = parent_.size(); j <= i; ++j) {
      parent_.push_back(static_cast<trace::Tid>(j));
    }
  }
  trace::Tid find(trace::Tid t) {
    while (parent_[static_cast<std::size_t>(t)] != t) {
      trace::Tid& up = parent_[static_cast<std::size_t>(t)];
      up = parent_[static_cast<std::size_t>(up)];
      t = up;
    }
    return t;
  }
  void unite(trace::Tid a, trace::Tid b) {
    add(std::max(a, b));
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
  std::size_t size() const { return parent_.size(); }

 private:
  std::vector<trace::Tid> parent_;
};

/// A message as the grouping sees it: it may cross groups only if its first
/// event is its one send.
struct MessageUse {
  trace::Tid first = trace::kNoTid;  ///< thread of its first event.
  std::uint32_t sends = 0;
  bool recv_first = false;  ///< a receive came before any send.

  bool shared() const { return recv_first || sends > 1; }
};

/// What one contiguous range of the trace tells the grouping: its threads'
/// event counts, the threads it ties (forks, joins, and within the range,
/// the threads of one barrier or lock), the first thread of each barrier
/// and lock, and each message's use.
struct RangeSummary {
  std::size_t bad = HbIndex::npos;  ///< first event with a tid out of range.
  std::vector<std::uint32_t> load;  ///< events by tid.
  ThreadGroups groups;
  FlatMap<trace::Tid> barrier_first, lock_first;
  FlatMap<MessageUse> messages;
  std::vector<std::uint32_t> message_events;
};

/// A message clock handed from the partition that sent it to those that
/// receive it.
struct MessageSlot {
  std::uint32_t sender = 0;  ///< partition that replays the send.
  VectorClock clock;         ///< the send's clock, once published.
  std::atomic<bool> published{false};

  void publish() {
    published.store(true);
    published.notify_all();
  }
};

/// Events a partition's replay prefetches ahead of the one it replays.
constexpr std::size_t kPrefetchAhead = 8;

/// One replay of a trace on up to `jobs` jobs in one fan-out, the calling
/// thread's and up to jobs - 1 pooled threads': each job summarizes one
/// range of the events; the calling thread merges the summaries and packs
/// the thread groups into partitions; each partition's job collects its
/// events, replays them, and, once the calling thread has laid the index
/// out, moves its records into place.  The jobs wait on each other at
/// latches, so every job counts down what it owes on every path, and the
/// calling thread waits only on jobs that started: a failure anywhere comes
/// back from run() as an exception.
class PartitionedReplay {
 public:
  PartitionedReplay(const std::vector<trace::Event>& events,
                    HappensBeforeConfig cfg, std::size_t jobs)
      : events_(events),
        cfg_(cfg),
        jobs_(std::max<std::size_t>(1, jobs)),
        scanned_(static_cast<std::ptrdiff_t>(jobs_)) {}

  void run();
  HbIndex finish(std::vector<trace::Event> events) {
    if (merge_) return std::move(*merge_).finish(std::move(events));
    return std::move(parts_.front()).finish(std::move(events));
  }
  std::size_t partitions() const { return parts_.size(); }

 private:
  /// Every event on the calling thread, into the one recorder.
  void replay_all();
  /// Summarizes the r-th of jobs_ ranges.
  void scan(std::size_t r);
  /// scan(r), its exception kept for pack(); counts the range down.
  void scan_guarded(std::size_t r);
  /// Merges the summaries in range order, groups the threads and packs the
  /// groups into at most `max_parts` partitions (throws on a bad tid or a
  /// range's failure, the first range's first).
  void pack(std::size_t max_parts);
  void replay_partition(std::uint32_t p);
  void replay_guarded(std::uint32_t p);
  void job(std::size_t j);

  const std::vector<trace::Event>& events_;
  HappensBeforeConfig cfg_;
  std::size_t jobs_;
  std::size_t started_ = 1;  ///< jobs running: the caller's and the pooled.
  std::vector<RangeSummary> summaries_;
  std::vector<std::exception_ptr> scan_errors_;  ///< by range.
  std::vector<std::uint16_t> tids_;  ///< by event, written by the scans.
  static_assert(trace::kMaxTid <= 1 << 16);
  std::vector<std::uint32_t> part_of_;  ///< partition by tid.
  std::vector<std::uint32_t> part_load_;
  std::vector<std::vector<std::uint32_t>> members_;
  std::vector<HbRecorder> parts_;
  std::vector<std::exception_ptr> errors_;  ///< by job.
  std::deque<MessageSlot> slots_;
  FlatMap<std::uint32_t> slot_of_;  ///< message -> its slot in slots_.
  std::optional<HbMerge> merge_;
  std::latch scanned_;
  std::latch packed_{1};
  std::optional<std::latch> replayed_;
  std::latch laid_out_{1};
};

void PartitionedReplay::replay_all() {
  // One IncrementalHb step per event: the offline replay IS the streaming
  // replay over a buffered stream, so the online engine (src/online/) and
  // this pass can never diverge on stamps, and the recorder keeps the edges
  // each step applied instead of deriving them a second time.
  IncrementalHb inc(cfg_);
  HbRecorder& recorder = parts_[0];
  recorder = HbRecorder(events_.size());
  for (const trace::Event& e : events_) {
    if (!trace::tids_in_range(e)) refuse(e);
    inc.advance(e, &recorder);
  }
}

void PartitionedReplay::scan(std::size_t r) {
  RangeSummary& sum = summaries_[r];
  const std::size_t begin = events_.size() * r / jobs_;
  const std::size_t end = events_.size() * (r + 1) / jobs_;
  const auto link = [&sum](FlatMap<trace::Tid>& first, const trace::Event& e) {
    if (const trace::Tid* t = first.find(e.obj)) {
      sum.groups.unite(*t, e.tid);
    } else {
      first[e.obj] = e.tid;
    }
  };
  for (std::size_t i = begin; i < end; ++i) {
    const trace::Event& e = events_[i];
    if (!trace::tids_in_range(e)) {
      sum.bad = i;
      return;
    }
    const auto t = static_cast<std::size_t>(e.tid);
    tids_[i] = static_cast<std::uint16_t>(e.tid);
    if (t >= sum.load.size()) sum.load.resize(t + 1, 0);
    ++sum.load[t];
    switch (e.kind) {
      case trace::EventKind::kThreadFork:
      case trace::EventKind::kThreadJoin:
        sum.groups.unite(e.tid, static_cast<trace::Tid>(e.obj));
        break;
      case trace::EventKind::kBarrier:
        link(sum.barrier_first, e);
        break;
      case trace::EventKind::kLockAcquire:
      case trace::EventKind::kLockRelease:
        if (cfg_.lock_edges) link(sum.lock_first, e);
        break;
      case trace::EventKind::kMsgSend:
      case trace::EventKind::kMsgRecv: {
        MessageUse& m = sum.messages[e.obj];
        if (m.first == trace::kNoTid) m.first = e.tid;
        if (e.kind == trace::EventKind::kMsgSend) {
          ++m.sends;
        } else if (m.sends == 0) {
          m.recv_first = true;
        }
        sum.message_events.push_back(static_cast<std::uint32_t>(i));
        break;
      }
      default:
        break;
    }
  }
}

void PartitionedReplay::scan_guarded(std::size_t r) {
  try {
    scan(r);
  } catch (...) {
    scan_errors_[r] = std::current_exception();
  }
  scanned_.count_down();
}

void PartitionedReplay::pack(std::size_t max_parts) {
  for (std::size_t r = 0; r < jobs_; ++r) {
    if (scan_errors_[r]) std::rethrow_exception(scan_errors_[r]);
    if (summaries_[r].bad != HbIndex::npos) refuse(events_[summaries_[r].bad]);
  }
  // Group the threads that share a fork/join, a barrier, a lock (with lock
  // edges) or any message but a send-once-then-receive one.
  ThreadGroups groups;
  std::vector<std::uint32_t> load;  // by tid: events, then by group root.
  FlatMap<trace::Tid> barrier_first, lock_first;
  FlatMap<MessageUse> messages;
  const auto link = [&groups](FlatMap<trace::Tid>& first, trace::ObjId obj,
                              trace::Tid t) {
    if (const trace::Tid* f = first.find(obj)) {
      groups.unite(*f, t);
    } else {
      first[obj] = t;
    }
  };
  for (RangeSummary& sum : summaries_) {
    if (sum.load.size() > load.size()) {
      load.resize(sum.load.size(), 0);
      groups.add(static_cast<trace::Tid>(load.size() - 1));
    }
    for (std::size_t t = 0; t < sum.load.size(); ++t) load[t] += sum.load[t];
    for (std::size_t t = 0; t < sum.groups.size(); ++t) {
      const auto tid = static_cast<trace::Tid>(t);
      const trace::Tid root = sum.groups.find(tid);
      if (root != tid) groups.unite(root, tid);
    }
    sum.barrier_first.for_each([&](trace::ObjId obj, trace::Tid t) {
      link(barrier_first, obj, t);
    });
    sum.lock_first.for_each([&](trace::ObjId obj, trace::Tid t) {
      link(lock_first, obj, t);
    });
    sum.messages.for_each([&messages](trace::ObjId obj, const MessageUse& in) {
      MessageUse& m = messages[obj];
      if (m.first == trace::kNoTid) m.first = in.first;
      if (m.sends == 0 && in.recv_first) m.recv_first = true;
      m.sends += in.sends;
    });
  }
  for (const RangeSummary& sum : summaries_) {
    for (const std::uint32_t i : sum.message_events) {
      const MessageUse& m = *messages.find(events_[i].obj);
      if (m.shared()) groups.unite(events_[i].tid, m.first);
    }
  }

  // Pack the groups, largest first, each onto the least loaded partition.
  const std::size_t ntids = groups.size();
  load.resize(ntids, 0);
  for (std::size_t t = 0; t < ntids; ++t) {
    const auto root = static_cast<std::size_t>(groups.find(static_cast<trace::Tid>(t)));
    if (root != t) {
      load[root] += load[t];
      load[t] = 0;
    }
  }
  std::vector<trace::Tid> roots;
  for (std::size_t t = 0; t < ntids; ++t) {
    if (load[t] > 0) roots.push_back(static_cast<trace::Tid>(t));
  }
  const std::size_t parts = std::max<std::size_t>(1, std::min(roots.size(), max_parts));
  std::stable_sort(roots.begin(), roots.end(), [&load](trace::Tid a, trace::Tid b) {
    return load[static_cast<std::size_t>(a)] > load[static_cast<std::size_t>(b)];
  });
  part_load_.assign(parts, 0);
  part_of_.assign(ntids, 0);
  for (const trace::Tid root : roots) {
    const auto p = static_cast<std::uint32_t>(
        std::min_element(part_load_.begin(), part_load_.end()) - part_load_.begin());
    part_load_[p] += load[static_cast<std::size_t>(root)];
    part_of_[static_cast<std::size_t>(root)] = p;
  }
  for (std::size_t t = 0; t < ntids; ++t) {
    const trace::Tid root = groups.find(static_cast<trace::Tid>(t));
    part_of_[t] = part_of_[static_cast<std::size_t>(root)];
  }

  // A slot for each message some partition receives but another sent.
  for (const RangeSummary& sum : summaries_) {
    for (const std::uint32_t i : sum.message_events) {
      const trace::Event& e = events_[i];
      const MessageUse& m = *messages.find(e.obj);
      if (m.shared() || e.kind != trace::EventKind::kMsgRecv) continue;
      const std::uint32_t sender = part_of_[static_cast<std::size_t>(m.first)];
      if (sender == part_of_[static_cast<std::size_t>(e.tid)] ||
          slot_of_.find(e.obj) != nullptr) {
        continue;
      }
      slot_of_[e.obj] = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back().sender = sender;
    }
  }
  members_.resize(parts);
  parts_.resize(parts);
}

void PartitionedReplay::replay_partition(std::uint32_t p) {
  // The partition's own events, in seq order: every partition collects its
  // list at once, from the tids the scans wrote.
  std::vector<std::uint32_t>& mine = members_[p];
  mine.reserve(part_load_[p]);
  for (std::size_t i = 0; i < tids_.size(); ++i) {
    if (part_of_[tids_[i]] == p) mine.push_back(static_cast<std::uint32_t>(i));
  }
  parts_[p] = HbRecorder(mine.size());
  HbRecorder& recorder = parts_[p];
  IncrementalHb inc(cfg_);
  for (std::size_t k = 0; k < mine.size(); ++k) {
    // A partition's events are strided through the trace, which the
    // hardware prefetcher does not follow.
    if (k + kPrefetchAhead < mine.size()) {
      const auto* ahead =
          reinterpret_cast<const char*>(&events_[mine[k + kPrefetchAhead]]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + 64);
    }
    const trace::Event& e = events_[mine[k]];
    MessageSlot* slot = nullptr;
    if (!slots_.empty() && (e.kind == trace::EventKind::kMsgSend ||
                            e.kind == trace::EventKind::kMsgRecv)) {
      if (const std::uint32_t* s = slot_of_.find(e.obj)) slot = &slots_[*s];
    }
    if (slot != nullptr && slot->sender != p) {
      // A receive: its send has a smaller seq, so the partition replaying
      // it never waits on this one first (DESIGN.md §10).
      slot->published.wait(false);
      inc.import_message_clock(e.obj, slot->clock);
    }
    inc.advance(e, &recorder);
    if (slot != nullptr && slot->sender == p) {
      inc.message_clock(e.obj, &slot->clock);
      slot->publish();
    }
  }
}

void PartitionedReplay::replay_guarded(std::uint32_t p) {
  try {
    replay_partition(p);
  } catch (...) {
    errors_[p] = std::current_exception();
    // Release every receive still waiting on this partition's sends.
    for (MessageSlot& slot : slots_) {
      if (slot.sender == p) slot.publish();
    }
  }
}

void PartitionedReplay::job(std::size_t j) {
  scan_guarded(j);
  if (j == 0) {
    // The calling thread scans the ranges of the threads that did not
    // start, then merges the summaries and packs at most one partition per
    // running job.  A bad tid (or a failed allocation) leaves no partition
    // to replay, and every job ends.
    for (std::size_t r = started_; r < jobs_; ++r) scan_guarded(r);
    scanned_.wait();
    try {
      pack(started_);
      if (parts_.size() > 1) replayed_.emplace(static_cast<std::ptrdiff_t>(parts_.size()));
    } catch (...) {
      errors_[0] = std::current_exception();
      parts_.clear();
    }
    packed_.count_down();
    if (parts_.size() == 1) {
      try {
        replay_all();
      } catch (...) {
        errors_[0] = std::current_exception();
      }
      return;
    }
  }
  packed_.wait();
  const std::size_t parts = parts_.size();
  if (parts <= 1 || j >= parts) return;
  const auto p = static_cast<std::uint32_t>(j);
  replay_guarded(p);
  replayed_->count_down();
  if (p == 0) {
    // Once every partition replayed, the calling thread lays the index out.
    replayed_->wait();
    const auto failed = [](const std::exception_ptr& e) { return e != nullptr; };
    if (std::none_of(errors_.begin(), errors_.end(), failed)) {
      try {
        merge_.emplace(parts_, members_, events_);
      } catch (...) {
        errors_[0] = std::current_exception();
      }
    }
    laid_out_.count_down();
  }
  laid_out_.wait();
  // part() only moves and copies into storage the layout sized.
  if (merge_) merge_->part(p);
}

void PartitionedReplay::run() {
  if (jobs_ == 1) {
    parts_.resize(1);
    return replay_all();
  }
  summaries_.resize(jobs_);
  scan_errors_.resize(jobs_);
  errors_.resize(jobs_);
  tids_.resize(events_.size());
  // Its own pooled threads, not util::run_jobs, whose jobs after one that
  // cannot be started never run: these jobs wait on each other, so the
  // calling thread must know which of them run.  A thread that cannot be
  // started leaves its range to the calling thread and the replay to fewer
  // partitions.
  std::vector<util::PooledThread> threads;
  threads.reserve(jobs_ - 1);
  for (std::size_t j = 1; j < jobs_; ++j) {
    try {
      threads.emplace_back([this, j] { job(j); });
    } catch (...) {
      break;
    }
  }
  started_ = threads.size() + 1;
  job(0);  // throws nothing: every phase a job runs is guarded.
  for (util::PooledThread& t : threads) t.join();
  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

HbIndex HappensBeforeAnalysis::run(std::vector<trace::Event> events,
                                   std::size_t workers) const {
  // hardware_concurrency() reads sysfs on Linux: ask only when it can matter.
  if (events.size() < util::kParallelAnalysisThreshold) {
    workers = 1;
  } else if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return run_partitioned(std::move(events), workers);
}

HbIndex HappensBeforeAnalysis::run_partitioned(std::vector<trace::Event> events,
                                               std::size_t partitions) const {
  PartitionedReplay replay(events, cfg_, partitions);
  replay.run();
  partitions_counter().add(replay.partitions());
  return replay.finish(std::move(events));
}

}  // namespace home::detect
