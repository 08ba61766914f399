// Trace sink: collects the event stream emitted by the substrates.
//
// HOME's selective instrumentation keeps the event volume small (a handful of
// events per wrapped MPI call), but the wrappers fire from every rank-thread
// and every OpenMP worker at once, so the sink is built to scale with the
// emitting side:
//
//   * emit() appends to a *per-thread shard*: each emitting thread registers
//     its own append buffer with the log on first use (cached in TLS), so the
//     hot path takes an uncontended per-shard mutex instead of serializing
//     every wrapper call through one global lock;
//   * events carry a global sequence stamp drawn from an atomic counter,
//     which yields a total observation order consistent with each thread's
//     program order — the replay order used by the offline detectors;
//   * sorted_events() reassembles that order with a k-way merge over the
//     shards (each shard is seq-sorted by construction), with a
//     concatenation fast path when the shards' seq ranges do not overlap.
//
// The ITC-style baseline deliberately streams *all* memory accesses through
// its own online detector instead of this log (see src/baselines/itc.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/event.hpp"

namespace home::trace {

/// Interns callsite labels so MpiCallInfo stays flat.  Lookup by content is
/// O(1) via a hash index; storage is a deque so lookup() references stay
/// valid across concurrent interns.
class StringTable {
 public:
  std::uint32_t intern(const std::string& s);
  const std::string& lookup(std::uint32_t id) const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::deque<std::string> strings_{""};  // id 0 = empty label.
  std::unordered_map<std::string, std::uint32_t> index_{{"", 0}};
};

/// Streaming subscriber: receives every event at emit time, already stamped,
/// in strictly increasing seq order (delivery is serialized with seq
/// assignment).  on_event() runs on the emitting thread and may block — a
/// blocking sink is how bounded-queue backpressure reaches the wrappers.
/// The sink must never emit into the same log (self-deadlock).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;
};

/// Fan-out sink: forwards every event to each registered sink, in add()
/// order.  TraceLog holds a single sink slot; the tee is how a durability
/// writer (WAL) runs alongside the streaming analyzer.  Add all sinks before
/// installing the tee — add() is not synchronized with delivery.
class TeeSink : public EventSink {
 public:
  void add(EventSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void on_event(const Event& e) override {
    for (EventSink* s : sinks_) s->on_event(e);
  }
  std::size_t size() const { return sinks_.size(); }

 private:
  std::vector<EventSink*> sinks_;
};

class TraceLog {
 public:
  TraceLog();
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Stamp e.seq and append to the calling thread's shard. Thread-safe.
  /// Returns the assigned seq.
  Seq emit(Event e);

  /// Next sequence stamp without recording an event (for interval markers).
  Seq next_seq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Install (or clear, with nullptr) the streaming subscriber.  Install
  /// before emission starts and clear only after emitters have quiesced: the
  /// ordering guarantee covers events emitted while the sink is set, and the
  /// sink object must outlive any in-flight emit().
  void set_sink(EventSink* sink);

  /// Streaming-only mode: emit() delivers to the sink but skips the shard
  /// append, so the log itself stays empty on unbounded runs.  Only
  /// meaningful while a sink is installed; without one, events are dropped.
  void set_streaming_only(bool on);

  /// Snapshot of all events sorted by seq (stable order for replay): the
  /// shards' runs concatenated when their seq ranges are disjoint, k-way
  /// merged otherwise — no re-sort of the whole log.
  std::vector<Event> sorted_events() const;

  std::size_t size() const;
  void clear();

  StringTable& strings() { return strings_; }
  const StringTable& strings() const { return strings_; }

 private:
  /// One append buffer per emitting thread.  Only the owning thread writes;
  /// the mutex exists so snapshot readers (sorted_events / size) can run
  /// concurrently with emission, and is uncontended on the writer fast path.
  struct Shard {
    mutable std::mutex mu;
    std::vector<Event> events;
  };

  Shard* shard_for_this_thread();

  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Seq> seq_{1};
  std::atomic<EventSink*> sink_{nullptr};
  std::atomic<bool> streaming_only_{false};
  /// Serializes seq assignment with sink delivery so the subscriber sees a
  /// strictly increasing seq stream.  Only taken when a sink is installed;
  /// the sink-free fast path stays per-shard.
  std::mutex publish_mu_;
  StringTable strings_;
  /// Process-unique id; keys the per-thread shard cache so a stale cache
  /// entry from a destroyed log can never alias a new log instance.
  const std::uint64_t log_id_;
};

}  // namespace home::trace
