#include "src/detect/incremental.hpp"

#include <algorithm>
#include <utility>

namespace home::detect {

// ------------------------------------------------------------- IncrementalHb

void IncrementalHb::ensure_tid(trace::Tid tid) {
  const auto i = static_cast<std::size_t>(tid);
  for (std::size_t t = threads_.size(); t <= i; ++t) {
    threads_.push_back(Clock{kNoFrame, static_cast<trace::Tid>(t), 0});
    thread_state_.push_back(0);
  }
}

std::uint32_t IncrementalHb::new_frame(std::size_t n) {
  std::uint32_t f;
  if (free_frames_.empty()) {
    f = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  } else {
    f = free_frames_.back();
    free_frames_.pop_back();
  }
  Frame& frame = frames_[f];
  frame.c.resize(n);
  frame.refs = 1;
  frame.serial = ++serial_;
  return f;
}

void IncrementalHb::drop(std::uint32_t f) {
  if (f != kNoFrame && --frames_[f].refs == 0) free_frames_.push_back(f);
}

void IncrementalHb::join(Clock& dst, const Clock& src) {
  // src's own component lives outside its frame unless it is dst's own.
  const bool src_own = src.tid != trace::kNoTid && src.tid != dst.tid;
  const auto s = static_cast<std::size_t>(src.tid);
  const std::uint64_t src_at_dst = component(src, dst.tid);
  if (src.frame == dst.frame || src.frame == kNoFrame) {
    // src can raise nothing of dst's frame but its own component.
    dst.own = std::max(dst.own, src_at_dst);
    if (!src_own || src.own <= component(dst, src.tid)) return;
    const std::size_t na = width(dst.frame);
    const std::uint32_t f = new_frame(std::max(na, s + 1));
    std::uint64_t* out = frames_[f].c.data();
    std::copy_n(data(dst.frame), na, out);
    std::fill(out + na, out + frames_[f].c.size(), 0);
    out[s] = src.own;
    drop(dst.frame);
    dst.frame = f;
    return;
  }
  const std::size_t na = width(dst.frame);
  const std::size_t nb = width(src.frame);
  const std::size_t common = std::min(na, nb);
  const std::uint32_t f = new_frame(std::max({na, nb, src_own ? s + 1 : 0}));
  const std::uint64_t* a = data(dst.frame);
  const std::uint64_t* b = data(src.frame);
  std::uint64_t* out = frames_[f].c.data();
  // Counts the components src raises (dst's own slot is not dst's view).
  std::size_t raised = 0;
  for (std::size_t u = 0; u < common; ++u) {
    raised += b[u] > a[u];
    out[u] = std::max(a[u], b[u]);
  }
  std::copy(a + common, a + na, out + common);
  for (std::size_t u = common; u < nb; ++u) {
    raised += b[u] != 0;
    out[u] = b[u];
  }
  std::fill(out + std::max(na, nb), out + frames_[f].c.size(), 0);
  const auto self = static_cast<std::size_t>(dst.tid);
  if (dst.tid != trace::kNoTid && self < nb &&
      b[self] > (self < na ? a[self] : 0)) {
    --raised;
  }
  if (src_own && src.own > out[s]) {
    out[s] = src.own;
    ++raised;
  }
  dst.own = std::max(dst.own, src_at_dst);
  if (raised == 0) {
    drop(f);
    return;
  }
  drop(dst.frame);
  dst.frame = f;
}

void IncrementalHb::publish(FlatMap<Clock>& clocks, trace::ObjId obj,
                            const Clock& sender) {
  if (Clock* clock = clocks.find(obj)) {
    join(*clock, sender);
    return;
  }
  // The first publication shares the sender's frame.
  hold(sender.frame);
  clocks[obj] = sender;
}

std::uint32_t IncrementalHb::open_barrier(trace::ObjId obj) {
  if (const std::uint32_t* a = barriers_.find(obj)) return *a;
  std::uint32_t a;
  if (free_accs_.empty()) {
    a = static_cast<std::uint32_t>(accs_.size());
    accs_.emplace_back();
  } else {
    a = free_accs_.back();
    free_accs_.pop_back();
  }
  barriers_[obj] = a;
  return a;
}

void IncrementalHb::arrive(const trace::Event& e, HbRecorder* rec) {
  const std::uint32_t a = open_barrier(e.obj);
  BarrierAcc& acc = accs_[a];
  const Clock& me = threads_[static_cast<std::size_t>(e.tid)];
  if (acc.base == kNoFrame) {
    acc.base = me.frame;
    hold(me.frame);
  } else if (me.frame != kNoFrame && me.frame != acc.base) {
    // Off the base frame: fold the whole frame into `extra` (its slot for
    // this thread is at most `own`, which the arrival records anyway).
    const std::uint64_t* f = data(me.frame);
    const std::size_t n = width(me.frame);
    if (acc.extra.size() < n) acc.extra.resize(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
      acc.extra[u] = std::max(acc.extra[u], f[u]);
    }
  }
  acc.arrivals.push_back({e.tid, me.own, serial(me.frame)});
  const auto expected = static_cast<std::size_t>(e.aux);
  if (expected == 0 || acc.arrivals.size() < expected) return;

  // Complete: one frame holds the join of every arrival.
  const std::size_t nb = width(acc.base);
  std::size_t n = std::max(nb, acc.extra.size());
  for (const Arrival& arr : acc.arrivals) {
    n = std::max(n, static_cast<std::size_t>(arr.tid) + 1);
  }
  const std::uint32_t joined = new_frame(n);
  std::uint64_t* out = frames_[joined].c.data();
  std::copy_n(data(acc.base), nb, out);
  std::fill(out + nb, out + n, 0);
  for (std::size_t u = 0; u < acc.extra.size(); ++u) {
    out[u] = std::max(out[u], acc.extra[u]);
  }
  for (const Arrival& arr : acc.arrivals) {
    std::uint64_t& c = out[static_cast<std::size_t>(arr.tid)];
    c = std::max(c, arr.own);
  }
  // The issuer's view shows the frame the completion moves it off.
  pinned_ = me.frame;
  hold(pinned_);
  const Clock all{joined, trace::kNoTid, 0};
  for (const Arrival& arr : acc.arrivals) {
    const auto t = static_cast<std::size_t>(arr.tid);
    thread_state_[t] |= kHasClock;
    Clock& clock = threads_[t];
    if (clock.frame == kNoFrame || serial(clock.frame) == arr.serial) {
      // Nothing was joined into this clock since it arrived, so `joined`
      // holds all of it but its own component: take the frame as it is.
      hold(joined);
      drop(clock.frame);
      clock.frame = joined;
      clock.own = std::max(clock.own, frames_[joined].c[t]);
    } else {
      join(clock, all);
    }
  }
  drop(joined);
  drop(acc.base);
  acc.base = kNoFrame;
  acc.extra.clear();
  acc.arrivals.clear();
  free_accs_.push_back(a);
  barriers_.erase(e.obj);
  if (rec != nullptr) rec->completed(e);
}

StampView IncrementalHb::advance(const trace::Event& e, HbRecorder* rec) {
  drop(std::exchange(pinned_, kNoFrame));
  ensure_tid(e.tid);
  const auto ti = static_cast<std::size_t>(e.tid);
  thread_state_[ti] |= kHasClock;

  {
    // Incoming edges before the stamp.
    const Clock* in = nullptr;
    EdgeKind kind = EdgeKind::kProgramOrder;
    switch (e.kind) {
      case trace::EventKind::kLockAcquire:
        if (cfg_.lock_edges) {
          in = lock_clock_.find(e.obj);
          kind = EdgeKind::kLock;
        }
        break;
      case trace::EventKind::kMsgRecv:
        in = message_clock_.find(e.obj);
        kind = EdgeKind::kMessage;
        break;
      case trace::EventKind::kThreadJoin: {
        const auto child = static_cast<std::size_t>(e.obj);
        if (child < threads_.size() && (thread_state_[child] & kHasClock) != 0) {
          in = &threads_[child];
          kind = EdgeKind::kJoin;
        }
        break;
      }
      default:
        break;
    }
    Clock& me = threads_[ti];
    if (in != nullptr) {
      join(me, *in);
      if (rec != nullptr) rec->joined(e, kind);
    }
    ++me.own;
  }

  // The stamp is the clock right after the bump, BEFORE outgoing edges.
  // Outgoing edges move the issuing thread off its frame only on a barrier
  // completion (the frame stays pinned until the next call) and a self-join
  // (the frame is dropped, but no frame is built after it in this call).
  const Clock& me = threads_[ti];
  StampView view;
  view.tid = e.tid;
  view.value = me.own;
  view.frame = data(me.frame);
  view.size = width(me.frame);
  view.slot = me.frame;
  view.serial = serial(me.frame);
  if (rec != nullptr) rec->stamped(e, view);

  // Outgoing edges after the stamp.  References into threads_ are
  // re-fetched by index after any call that may grow it.
  switch (e.kind) {
    case trace::EventKind::kLockRelease:
      if (cfg_.lock_edges) {
        publish(lock_clock_, e.obj, threads_[ti]);
        if (rec != nullptr) rec->published(e, EdgeKind::kLock);
      }
      break;
    case trace::EventKind::kMsgSend:
      publish(message_clock_, e.obj, threads_[ti]);
      if (rec != nullptr) rec->published(e, EdgeKind::kMessage);
      break;
    case trace::EventKind::kThreadFork: {
      const auto child = static_cast<trace::Tid>(e.obj);
      ensure_tid(child);
      const auto ci = static_cast<std::size_t>(child);
      thread_state_[ci] |= kHasClock;
      join(threads_[ci], threads_[ti]);
      if (rec != nullptr) rec->published(e, EdgeKind::kFork);
      break;
    }
    case trace::EventKind::kThreadJoin: {
      // The child's history is absorbed; it will not emit again, so its
      // clock no longer constrains the watermark and can be reclaimed.
      const auto child = static_cast<std::size_t>(e.obj);
      if (child < threads_.size()) {
        drop(threads_[child].frame);
        threads_[child].frame = kNoFrame;
        threads_[child].own = 0;
        thread_state_[child] &= static_cast<std::uint8_t>(~(kHasClock | kDeclared));
        thread_state_[child] |= kJoined;
        if (rec != nullptr) rec->reset(static_cast<trace::Tid>(child));
      }
      break;
    }
    case trace::EventKind::kBarrier:
      arrive(e, rec);
      break;
    default:
      break;
  }

  return view;
}

void IncrementalHb::declare_thread(trace::Tid tid) {
  if (tid == trace::kNoTid) return;
  ensure_tid(tid);
  const auto i = static_cast<std::size_t>(tid);
  if ((thread_state_[i] & kJoined) != 0) return;
  thread_state_[i] |= kDeclared;
}

bool IncrementalHb::watermark(VectorClock* out) const {
  // Live threads: declared ones plus any that already stamped events.
  std::vector<std::uint64_t> meet;
  bool first = true;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const std::uint8_t s = thread_state_[i];
    const bool live = (s & (kHasClock | kDeclared)) != 0;
    if (!live) continue;
    if ((s & kHasClock) == 0) return false;  // silent thread: meet is 0.
    const Clock& c = threads_[i];
    const std::uint64_t* f = data(c.frame);
    const std::size_t w = width(c.frame);
    if (first) {
      meet.assign(f, f + w);
      if (meet.size() <= i) meet.resize(i + 1, 0);
      meet[i] = c.own;
      first = false;
      continue;
    }
    const std::uint64_t mine = i < meet.size() ? std::min(meet[i], c.own) : 0;
    meet.resize(std::min(meet.size(), std::max(w, i + 1)));
    const std::size_t common = std::min(meet.size(), w);
    for (std::size_t u = 0; u < common; ++u) meet[u] = std::min(meet[u], f[u]);
    std::fill(meet.begin() + static_cast<std::ptrdiff_t>(common), meet.end(), 0);
    if (i < meet.size()) meet[i] = mine;
  }
  if (first) return false;
  *out = VectorClock(meet.data(), meet.size());
  return true;
}

bool IncrementalHb::leq(const Clock& c, const VectorClock& v) const {
  const std::uint64_t* f = data(c.frame);
  for (std::size_t u = 0; u < width(c.frame); ++u) {
    const auto t = static_cast<trace::Tid>(u);
    if (t != c.tid && f[u] > v.get(t)) return false;
  }
  return c.tid == trace::kNoTid || c.own <= v.get(c.tid);
}

void IncrementalHb::retire(const VectorClock& watermark) {
  auto dominated = [this, &watermark](trace::ObjId, const Clock& clock) {
    if (!leq(clock, watermark)) return false;
    drop(clock.frame);
    return true;
  };
  lock_clock_.erase_if(dominated);
  message_clock_.erase_if(dominated);
}

bool IncrementalHb::message_clock(trace::ObjId obj, VectorClock* out) const {
  const Clock* clock = message_clock_.find(obj);
  if (clock == nullptr) return false;
  *out = VectorClock(data(clock->frame), width(clock->frame));
  if (clock->tid != trace::kNoTid) out->set(clock->tid, clock->own);
  return true;
}

void IncrementalHb::import_message_clock(trace::ObjId obj,
                                         const VectorClock& clock) {
  const std::uint32_t f = new_frame(clock.size());
  std::copy_n(clock.data(), clock.size(), frames_[f].c.data());
  Clock& slot = message_clock_[obj];
  drop(slot.frame);
  slot = Clock{f, trace::kNoTid, 0};
}

std::size_t IncrementalHb::resident_entries() const {
  std::size_t threads = 0;
  for (const std::uint8_t s : thread_state_) {
    threads += (s & kHasClock) != 0 ? 1 : 0;
  }
  return threads + lock_clock_.size() + message_clock_.size() +
         barriers_.size();
}

std::size_t IncrementalHb::resident_clock_bytes() const {
  std::size_t n = 0;
  for (const Frame& f : frames_) n += f.c.capacity() * sizeof(std::uint64_t);
  for (const BarrierAcc& acc : accs_) {
    n += acc.extra.capacity() * sizeof(std::uint64_t);
  }
  return n;
}


// ------------------------------------------------------- IncrementalFrontier

void IncrementalFrontier::on_access(trace::ObjId var,
                                    std::shared_ptr<const OnlineAccess> rec,
                                    const StampView& view,
                                    std::vector<PairHit>* hits) {
  const FrontierAccess access{rec->seq, view.value, rec->tid, rec->write,
                              &rec->locks};
  vars_[var].on_access(
      cfg_, access, rec, [&view](trace::Tid t) { return view.get(t); },
      [&](const std::shared_ptr<const OnlineAccess>& older) {
        if (hits) hits->push_back(PairHit{older, rec});
      });
}

std::size_t IncrementalFrontier::retire(const VectorClock& watermark) {
  std::size_t reclaimed = 0;
  vars_.for_each_mutable([&](trace::ObjId, Frontier& frontier) {
    reclaimed += frontier.retire(watermark);
  });
  return reclaimed;
}

bool IncrementalFrontier::concurrent(trace::ObjId var) const {
  const Frontier* frontier = vars_.find(var);
  return frontier != nullptr && frontier->concurrent();
}

std::size_t IncrementalFrontier::resident_records() const {
  std::size_t n = 0;
  vars_.for_each([&n](trace::ObjId, const Frontier& frontier) {
    n += frontier.resident_records();
  });
  return n;
}

std::size_t IncrementalFrontier::epoch_hits() const {
  std::size_t n = 0;
  vars_.for_each([&n](trace::ObjId, const Frontier& frontier) {
    n += frontier.epoch_hits();
  });
  return n;
}

}  // namespace home::detect
