#include "src/detect/happens_before.hpp"

#include <algorithm>

#include "src/detect/incremental.hpp"

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
  thread(e.tid).changed = true;
  switch (kind) {
    case EdgeKind::kMessage:
      index_.sync_in_.push_back({i, kind, *sends_.find(e.obj)});
      break;
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

bool HbRecorder::frame_matches(std::uint32_t frame,
                               const StampView& view) const {
  // The own component is stored inline, so it need not match.
  const HbIndex::Frame& f = index_.frames_[frame];
  const std::uint64_t* data = index_.frame_data_.data() + f.offset;
  const std::size_t n = std::max<std::size_t>(f.size, view.size);
  const auto own = static_cast<std::size_t>(view.tid);
  for (std::size_t t = 0; t < n; ++t) {
    if (t == own) continue;
    const std::uint64_t a = t < f.size ? data[t] : 0;
    const std::uint64_t b = t < view.size ? view.clock[t] : 0;
    if (a != b) return false;
  }
  return true;
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

void HbRecorder::stamped(const trace::Event& e, const StampView& view) {
  const auto i = static_cast<std::uint32_t>(index_.stamps_.size());
  Thread& me = thread(e.tid);
  // This event is the first reader of what forks and barriers wrote into
  // its thread's clock since the thread's last event.
  for (const auto& [kind, ref] : me.pending) {
    index_.sync_in_.push_back({i, kind, ref});
  }
  me.pending.clear();

  if (me.changed) {
    if (me.shared != kNone && frame_matches(me.shared, view)) {
      me.frame = me.shared;
    } else if (me.frame == kNone || !frame_matches(me.frame, view)) {
      me.frame = add_frame(view.clock, view.size);
    }  // else the joined clocks brought nothing new.
    me.changed = false;
    me.shared = kNone;
  }
  index_.stamps_.push_back({e.tid, me.frame, view.value});
  index_.dense_stamp_bytes_ += view.size * sizeof(std::uint64_t);

  index_.po_prev_.push_back(me.last);
  me.last = i;
  const auto t = static_cast<std::size_t>(e.tid);
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
    case EdgeKind::kFork: {
      Thread& child = thread(static_cast<trace::Tid>(e.obj));
      child.pending.emplace_back(EdgeKind::kFork, i);
      child.changed = true;
      break;
    }
    default:
      break;
  }
}

void HbRecorder::reset(trace::Tid child) {
  Thread& t = thread(child);
  t.last = kNone;
  t.pending.clear();
  t.changed = true;
  t.shared = kNone;
}

void HbRecorder::completed(const trace::Event& e, const VectorClock& joined) {
  const std::uint32_t list = *arrivals_.find(e.obj);
  arrivals_.erase(e.obj);  // a reused object id starts a new instance.
  // Every participant whose clock held nothing beyond the arrivals now
  // holds exactly `joined`: one frame serves them all.
  const std::uint32_t frame = add_frame(joined.data(), joined.size());
  const std::pair<EdgeKind, std::uint32_t> write{EdgeKind::kBarrier, list};
  for (const std::uint32_t a : index_.source_lists_[list]) {
    Thread& p = thread(index_.stamps_[a].tid);
    if (p.pending.empty() || p.pending.back() != write) {
      p.pending.push_back(write);
    }
    p.changed = true;
    p.shared = frame;
  }
}

HbIndex HbRecorder::finish(std::vector<trace::Event> events) && {
  std::vector<std::uint32_t>& start = index_.sync_start_;
  start.assign(index_.stamps_.size() + 1, 0);
  for (const HbIndex::SyncIn& in : index_.sync_in_) ++start[in.target + 1];
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  index_.events_ = std::move(events);
  return std::move(index_);
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

HbIndex HappensBeforeAnalysis::run(std::vector<trace::Event> events) const {
  // One IncrementalHb step per event: the offline replay IS the streaming
  // replay over a buffered stream, so the online engine (src/online/) and
  // this pass can never diverge on stamps, and the recorder keeps the edges
  // each step applied instead of deriving them a second time.
  IncrementalHb inc(cfg_);
  HbRecorder recorder(events.size());
  for (const trace::Event& e : events) inc.advance(e, &recorder);
  return std::move(recorder).finish(std::move(events));
}

}  // namespace home::detect
