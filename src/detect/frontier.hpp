// The per-variable frontier: the one race check behind both detection paths.
// RaceDetector::analyze sweeps each variable's accesses through one after the
// whole trace is stamped; IncrementalFrontier feeds one access at a time and
// retires what the epoch watermark dominates.
//
// Checking every cross-thread access pair of a variable costs O(k^2) for k
// accesses.  The frontier instead keeps, per thread, only the *maximal*
// access of each (read/write, lockset) class, and checks each incoming
// access against the other threads' entries only.
//
// Why that is enough for the Concurrent(v) verdict, in every DetectorMode:
// take any racy pair (a, e) with a fed earlier, and let f be the frontier
// entry of a's thread for a's (kind, lockset) class when e arrives.  Then
// a <=po f, so
//   * f cannot happen-before e (else a would, contradicting a || e),
//   * e cannot happen-before f (HB edges only point forward in seq order),
// hence f || e; and f has a's lockset and kind, so the lockset-disjointness
// and write conditions carry over.  The frontier therefore flags e against
// f, in O(events x frontier width).
//
// Each thread also keeps a ring of its kFrontierHistory most recent
// accesses: a racy access superseded in its class by a later same-class
// access (e.g. MPI_Probe then MPI_Recv, both writing `srctmp` unlocked)
// would otherwise vanish before its cross-thread partner arrives, and the
// thread-safety matcher needs that pair to classify the violation (V5 vs
// V3).  The ring only enriches the reported pairs; the verdict never
// depends on it.
//
// The candidates (the union of every thread's class maxima and ring) live
// in one list kept sorted by feed order: a new access always carries the
// largest order so far, so appends keep it sorted, and an access held by
// both its class slot and the ring is stored once with a refcount.  No
// access ever sorts the candidates.
//
// The HB half of the predicate is the epoch test (stamp.hpp): a candidate c
// fed before the incoming access a, on another thread, happens-before a iff
// c's own stamp component is <= a's view of c's thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

/// Depth of each thread's ring of most recent accesses.
inline constexpr std::size_t kFrontierHistory = 8;

/// What the frontier keeps about one access.
struct FrontierAccess {
  std::uint64_t order = 0;  ///< strictly increasing in feed order.
  std::uint64_t epoch = 0;  ///< own component of the access's HB stamp.
  trace::Tid tid = trace::kNoTid;
  bool write = false;
  /// The access's lockset, owned by the caller's record for as long as the
  /// frontier holds the access.
  const std::vector<trace::ObjId>* locks = nullptr;
};

/// Two accesses of one thread in the same (kind, lockset) class: the later
/// one supersedes the earlier as the class maximum.
inline bool same_class(const FrontierAccess& a, const FrontierAccess& b) {
  return a.write == b.write && *a.locks == *b.locks;
}

/// One variable's frontier.  `Rec` is the caller's handle for an access (an
/// event index post-mortem, a shared OnlineAccess when streaming); each racy
/// pair is reported with the handle of its older access.
template <class Rec>
class VarFrontier {
 public:
  /// Check `a` against every other thread's entries in feed order, then
  /// make it its thread's newest entry.  `clock_at(t)` is component t of
  /// a's HB stamp; `on_pair(older)` runs for each racy pair within the pair
  /// budget.  The first racy pair past the budget saturates the variable:
  /// that pair is dropped, the state is released, and later accesses are
  /// ignored.
  template <class ClockAt, class OnPair>
  void on_access(const RaceDetectorConfig& cfg, const FrontierAccess& a,
                 const Rec& rec, const ClockAt& clock_at, OnPair&& on_pair) {
    if (saturated_) return;
    for (const Entry& c : entries_) {
      if (c.access.tid == a.tid) continue;
      ++pairs_checked_;
      if (!racy(cfg.mode, c.access, a, clock_at)) continue;
      concurrent_ = true;
      if (cfg.max_pairs_per_var != 0 && pairs_ >= cfg.max_pairs_per_var) {
        saturated_ = true;
        release_storage();
        return;
      }
      ++pairs_;
      on_pair(c.rec);
    }
    advance(a, rec);
  }

  /// Drop every access whose stamp is at or below the watermark: each
  /// future access happens-after it, so it can never race again.  Sound for
  /// the HB-based modes only.  Returns the number of slots freed.
  std::size_t retire(const VectorClock& watermark) {
    auto dominated = [&watermark](const FrontierAccess& x) {
      return x.epoch <= watermark.get(x.tid);
    };
    const std::size_t before = resident_records();
    for (ThreadState& ts : threads_) {
      std::erase_if(ts.keyed, dominated);
      if (std::erase_if(ts.recent, dominated) != 0) {
        // Survivors back to feed order with the overwrite cursor at the
        // oldest: the ring keeps the most recent accesses in cyclic order,
        // exactly the post-mortem ring minus the retired (forever
        // HB-ordered) entries.
        std::sort(ts.recent.begin(), ts.recent.end(),
                  [](const FrontierAccess& x, const FrontierAccess& y) {
                    return x.order < y.order;
                  });
        ts.next = 0;
      }
    }
    std::erase_if(entries_,
                  [&dominated](const Entry& e) { return dominated(e.access); });
    if (entries_.empty()) release_storage();
    return before - resident_records();
  }

  bool concurrent() const { return concurrent_; }
  bool saturated() const { return saturated_; }
  /// Racy pairs reported so far (at most the pair budget).
  std::size_t pairs() const { return pairs_; }
  /// Cross-thread candidate checks performed.
  std::size_t pairs_checked() const { return pairs_checked_; }
  /// Checks answered by the O(1) epoch test (feeds `clock.epoch_hits`).
  std::size_t epoch_hits() const { return epoch_hits_; }

  /// Frontier slots in use (class maxima + ring entries).
  std::size_t resident_records() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) n += e.refs;
    return n;
  }

  /// Visit each held access once as fn(rec, slots holding it).
  template <class Fn>
  void for_each_record(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.rec, e.refs);
  }

 private:
  struct ThreadState {
    std::vector<FrontierAccess> keyed;   ///< one maximum per class.
    std::vector<FrontierAccess> recent;  ///< ring, cursor at `next`.
    std::size_t next = 0;
  };
  struct Entry {
    FrontierAccess access;
    Rec rec;
    std::uint8_t refs = 0;
  };

  template <class ClockAt>
  bool racy(DetectorMode mode, const FrontierAccess& older,
            const FrontierAccess& a, const ClockAt& clock_at) {
    if (!older.write && !a.write) return false;
    if (mode == DetectorMode::kLocksetOnly) {
      return trace::locksets_disjoint(*older.locks, *a.locks);
    }
    ++epoch_hits_;
    if (older.epoch <= clock_at(older.tid)) return false;  // older -> a.
    return mode == DetectorMode::kHbOnly ||
           trace::locksets_disjoint(*older.locks, *a.locks);
  }

  void advance(const FrontierAccess& a, const Rec& rec) {
    const auto t = static_cast<std::size_t>(a.tid);
    if (threads_.size() <= t) threads_.resize(t + 1);
    ThreadState& mine = threads_[t];
    auto it = std::find_if(mine.keyed.begin(), mine.keyed.end(),
                           [&a](const FrontierAccess& k) {
                             return same_class(k, a);
                           });
    if (it != mine.keyed.end()) {
      release(it->order);
      *it = a;
    } else {
      mine.keyed.push_back(a);
    }
    hold(a, rec);
    if (mine.recent.size() < kFrontierHistory) {
      mine.recent.push_back(a);
    } else {
      release(mine.recent[mine.next].order);
      mine.recent[mine.next] = a;
      mine.next = (mine.next + 1) % kFrontierHistory;
    }
    hold(a, rec);
  }

  void hold(const FrontierAccess& a, const Rec& rec) {
    if (!entries_.empty() && entries_.back().access.order == a.order) {
      ++entries_.back().refs;
    } else {
      entries_.push_back(Entry{a, rec, 1});
    }
  }

  void release(std::uint64_t order) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), order,
        [](const Entry& e, std::uint64_t o) { return e.access.order < o; });
    if (--it->refs == 0) entries_.erase(it);
  }

  void release_storage() {
    threads_ = {};
    entries_ = {};
  }

  std::vector<ThreadState> threads_;  ///< dense by tid.
  std::vector<Entry> entries_;        ///< sorted by order.
  bool concurrent_ = false;
  bool saturated_ = false;
  std::size_t pairs_ = 0;
  std::size_t pairs_checked_ = 0;
  std::size_t epoch_hits_ = 0;
};

}  // namespace home::detect
