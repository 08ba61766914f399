#include "src/detect/incremental.hpp"

namespace home::detect {

// ------------------------------------------------------------- IncrementalHb

void IncrementalHb::ensure_tid(trace::Tid tid) {
  const auto i = static_cast<std::size_t>(tid);
  if (i >= thread_clock_.size()) {
    thread_clock_.resize(i + 1);
    thread_state_.resize(i + 1, 0);
  }
}

StampView IncrementalHb::advance(const trace::Event& e) {
  ensure_tid(e.tid);
  const auto ti = static_cast<std::size_t>(e.tid);
  thread_state_[ti] |= kHasClock;

  {
    VectorClock& clk = thread_clock_[ti];
    // Incoming edges before the stamp, mirroring HappensBeforeAnalysis.
    switch (e.kind) {
      case trace::EventKind::kLockAcquire:
        if (cfg_.lock_edges) {
          if (const VectorClock* lc = lock_clock_.find(e.obj)) clk.join(*lc);
        }
        break;
      case trace::EventKind::kMsgRecv:
        if (cfg_.message_edges) {
          if (const VectorClock* mc = message_clock_.find(e.obj)) clk.join(*mc);
        }
        break;
      case trace::EventKind::kThreadJoin: {
        const auto child = static_cast<std::size_t>(e.obj);
        if (child < thread_clock_.size() &&
            (thread_state_[child] & kHasClock) != 0) {
          clk.join(thread_clock_[child]);
        }
        break;
      }
      default:
        break;
    }
    clk.bump(e.tid);
  }

  // The stamp is the clock right after the bump, BEFORE outgoing edges.
  // Outgoing edges never mutate the issuing thread's own clock except on
  // barrier completion (joined-accumulator fan-out) and a self-join — those
  // paths copy the stamp to scratch_ below and return a view over it.
  // Growing thread_clock_ (fork / barrier child) moves VectorClock elements,
  // but an element's heap buffer survives the move, so the span stays valid.
  StampView view;
  view.tid = e.tid;
  view.value = thread_clock_[ti].get(e.tid);
  view.clock = thread_clock_[ti].data();
  view.size = thread_clock_[ti].size();

  // Outgoing edges after the stamp.  References into thread_clock_ are
  // re-fetched by index after any call that may grow it.
  switch (e.kind) {
    case trace::EventKind::kLockRelease:
      if (cfg_.lock_edges) lock_clock_[e.obj].join(thread_clock_[ti]);
      break;
    case trace::EventKind::kMsgSend:
      if (cfg_.message_edges) message_clock_[e.obj].join(thread_clock_[ti]);
      break;
    case trace::EventKind::kThreadFork: {
      const auto child = static_cast<trace::Tid>(e.obj);
      ensure_tid(child);
      thread_state_[static_cast<std::size_t>(child)] |= kHasClock;
      thread_clock_[static_cast<std::size_t>(child)].join(thread_clock_[ti]);
      view.clock = thread_clock_[ti].data();
      break;
    }
    case trace::EventKind::kThreadJoin: {
      // The child's history is absorbed; it will not emit again, so its
      // clock no longer constrains the watermark and can be reclaimed.
      const auto child = static_cast<std::size_t>(e.obj);
      if (child < thread_clock_.size()) {
        if (child == ti) {  // degenerate self-join: keep the stamp alive.
          scratch_ = thread_clock_[ti];
          view.clock = scratch_.data();
          view.size = scratch_.size();
        }
        thread_clock_[child] = VectorClock();
        thread_state_[child] &= static_cast<std::uint8_t>(~(kHasClock | kDeclared));
        thread_state_[child] |= kJoined;
      }
      break;
    }
    case trace::EventKind::kBarrier: {
      BarrierAcc& acc = barriers_[e.obj];
      acc.arrived.push_back(e.tid);
      acc.joined.join(thread_clock_[ti]);
      const auto expected = static_cast<std::size_t>(e.aux);
      if (expected > 0 && acc.arrived.size() >= expected) {
        // Completion joins back into the issuer's own clock: snapshot the
        // pre-edge stamp first (scratch_ reuses its buffer run-to-run).
        scratch_ = thread_clock_[ti];
        view.clock = scratch_.data();
        view.size = scratch_.size();
        for (trace::Tid t : acc.arrived) {
          ensure_tid(t);
          thread_state_[static_cast<std::size_t>(t)] |= kHasClock;
          thread_clock_[static_cast<std::size_t>(t)].join(acc.joined);
        }
        barriers_.erase(e.obj);
      }
      break;
    }
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
  bool first = true;
  for (std::size_t i = 0; i < thread_clock_.size(); ++i) {
    const std::uint8_t s = thread_state_[i];
    const bool live = (s & (kHasClock | kDeclared)) != 0;
    if (!live) continue;
    if ((s & kHasClock) == 0) return false;  // silent thread: meet is 0.
    if (first) {
      *out = thread_clock_[i];
      first = false;
    } else {
      out->meet(thread_clock_[i]);
    }
  }
  return !first;
}

void IncrementalHb::retire(const VectorClock& watermark) {
  auto dominated = [&watermark](trace::ObjId, const VectorClock& clk) {
    return clk.leq(watermark);
  };
  lock_clock_.erase_if(dominated);
  message_clock_.erase_if(dominated);
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
  for (const VectorClock& clk : thread_clock_) n += clk.heap_bytes();
  lock_clock_.for_each(
      [&n](trace::ObjId, const VectorClock& clk) { n += clk.heap_bytes(); });
  message_clock_.for_each(
      [&n](trace::ObjId, const VectorClock& clk) { n += clk.heap_bytes(); });
  barriers_.for_each([&n](trace::ObjId, const BarrierAcc& acc) {
    n += acc.joined.heap_bytes();
  });
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
