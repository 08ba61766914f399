// Bounded MPMC handoff between the instrumented application threads
// (producers, via TraceLog's EventSink) and the OnlineAnalyzer's analysis
// thread (the single consumer).
//
// Backpressure policy when the queue is full:
//   * kBlock — the emitting thread waits for space.  This is the default and
//     the only policy under which the online verdicts are provably identical
//     to the post-mortem ones: no event is ever lost.  The consumer never
//     emits trace events, so blocking cannot deadlock.  Time spent waiting
//     is accounted (blocked_ns / `online.queue.blocked_ns`) so overhead
//     investigations can tell backpressure stalls from analysis cost.
//   * kDropNewest — the incoming event is discarded and counted.  Keeps the
//     application unthrottled at the cost of completeness (online verdicts
//     become a subset).  Only a standalone OnlineAnalyzer or EventQueue runs
//     it: a home::Session's queue always blocks.
//
// Drops are accounted by cause: `capacity` (kDropNewest on a full queue) vs
// `shutdown` (push after close(), any policy).  The split is mirrored into
// the telemetry registry (`online.queue.drops.capacity` / `.shutdown`) —
// a capacity drop means the analyzer cannot keep up, a shutdown drop means
// an emitter outlived the session teardown; conflating them hid the former.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

#include "src/trace/event.hpp"

namespace home::online {

enum class BackpressurePolicy {
  kBlock,       ///< producer waits for space (lossless, default).
  kDropNewest,  ///< discard the incoming event and count it.
};

/// What happened to a pushed event: accepted, or dropped for which cause.
enum class PushOutcome : std::uint8_t {
  kAccepted,
  kShedCapacity,     ///< kDropNewest on a full queue.
  kDroppedShutdown,  ///< push after close().
};

class EventQueue {
 public:
  EventQueue(std::size_t capacity, BackpressurePolicy policy);

  /// Enqueue one event.  Returns false if the event was dropped (kDropNewest
  /// on a full queue) or the queue is closed.
  bool push(trace::Event e) {
    return push_accounted(std::move(e)) == PushOutcome::kAccepted;
  }

  /// Enqueue with cause reporting.
  PushOutcome push_accounted(trace::Event e);

  /// Dequeue one event, blocking while the queue is open and empty.
  /// Returns false once the queue is closed and drained.
  bool pop(trace::Event* out);

  /// No more pushes; pending events remain poppable.
  void close();

  std::size_t dropped() const;           ///< total, both causes.
  std::size_t dropped_capacity() const;  ///< full queue under kDropNewest.
  std::size_t dropped_shutdown() const;  ///< push after close().
  std::uint64_t blocked_ns() const;      ///< producer wait time (kBlock).
  std::size_t max_depth() const;
  std::size_t depth() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<trace::Event> q_;
  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  bool closed_ = false;
  std::size_t dropped_capacity_ = 0;
  std::size_t dropped_shutdown_ = 0;
  std::uint64_t blocked_ns_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace home::online
