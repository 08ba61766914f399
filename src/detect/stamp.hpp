// Adaptive HB stamps: the FastTrack-style representation that makes the
// clock engine O(1) on the totally-ordered common case.
//
// Every event stamp has two faces:
//
//   * StampView — the *incoming* face: the issuing thread's epoch
//     (tid, value-after-bump) plus a raw span of its live clock.  Produced
//     allocation-free by IncrementalHb::advance and valid only until the
//     next advance() call; comparisons against retained state use it while
//     the clock is current.
//
//   * Stamp — the *retained* face: always carries the epoch, optionally a
//     full immutable clock (ClockRef).  Records retain the 16-byte epoch
//     only and promote to an interned full clock the first time they
//     participate in true concurrency.
//
// Why the epoch is enough (the FastTrack lemma, which holds here because
// IncrementalHb bumps the issuing thread's component at *every* event and
// publishes only full post-bump stamps along sync edges): for a stamp E of
// event e with epoch (t, v) and any clock C stamped at-or-after e,
//     full(E) <= C  iff  v <= C[t].
// So retained-vs-incoming orderings, retained-vs-watermark retirement (a
// pointwise meet of live thread clocks), and the V2 finalize checks are all
// answerable from the epoch in O(1) — the engine never degrades verdicts,
// only representation cost.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/detect/clock_arena.hpp"
#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

/// The live view of the event being processed: epoch + a span of the
/// issuing thread's clock.  The span points into IncrementalHb state and is
/// invalidated by the next advance().
struct StampView {
  trace::Tid tid = trace::kNoTid;
  std::uint64_t value = 0;              ///< own component, after the bump.
  const std::uint64_t* clock = nullptr;
  std::size_t size = 0;

  std::uint64_t get(trace::Tid t) const {
    const auto i = static_cast<std::size_t>(t);
    return i < size ? clock[i] : 0;
  }
  /// Materialize a private VectorClock (post-mortem HbIndex stamps).
  VectorClock to_clock() const { return VectorClock(clock, size); }
};

class Stamp {
 public:
  Stamp() = default;

  /// Epoch-only retention: 16 bytes, no clock payload.
  static Stamp epoch(const StampView& v) { return Stamp(v.tid, v.value, nullptr); }

  /// Shared interned full clock (promotion on concurrency).
  static Stamp interned(const StampView& v, ClockArena& arena) {
    return Stamp(v.tid, v.value, arena.intern(v.clock, v.size));
  }

  trace::Tid tid() const { return tid_; }
  std::uint64_t value() const { return value_; }
  bool has_clock() const { return clock_ != nullptr; }
  const ClockRef& clock() const { return clock_; }

  /// this-event happens-before-or-equals the event `later` was stamped at.
  /// Exact for epoch-only stamps when `later` is stamped at-or-after this
  /// stamp's creation (the lemma above); full stamps compare pointwise.
  bool leq_later(const StampView& later) const {
    if (clock_ == nullptr) return value_ <= later.get(tid_);
    const std::size_t n = clock_->size();
    const std::uint64_t* a = clock_->data();
    std::uint64_t gt = 0;
    for (std::size_t i = 0; i < n && i < later.size; ++i) {
      gt |= static_cast<std::uint64_t>(a[i] > later.clock[i]);
    }
    for (std::size_t i = later.size; i < n; ++i) {
      gt |= static_cast<std::uint64_t>(a[i] != 0);
    }
    return gt == 0;
  }

  /// this-event's full stamp <= `clock` pointwise, where `clock` is a meet
  /// of live thread clocks (the retirement watermark).  Exact for epochs:
  /// v <= meet[t] iff every live thread's clock dominates the full stamp.
  bool leq(const VectorClock& clock) const {
    if (clock_ == nullptr) return value_ <= clock.get(tid_);
    const std::size_t n = clock_->size();
    const std::uint64_t* a = clock_->data();
    std::uint64_t gt = 0;
    for (std::size_t i = 0; i < n; ++i) {
      gt |= static_cast<std::uint64_t>(a[i] >
                                       clock.get(static_cast<trace::Tid>(i)));
    }
    return gt == 0;
  }

  /// Heap bytes this stamp pins for clock payload (0 when epoch-only; a
  /// shared interned clock is charged to every holder — an upper bound).
  std::size_t clock_bytes() const {
    return clock_ == nullptr ? 0 : clock_->bytes();
  }

 private:
  Stamp(trace::Tid t, std::uint64_t v, ClockRef c)
      : tid_(t), value_(v), clock_(std::move(c)) {}

  trace::Tid tid_ = trace::kNoTid;
  std::uint64_t value_ = 0;
  ClockRef clock_;  ///< null => epoch-only.
};

}  // namespace home::detect
