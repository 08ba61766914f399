#include "src/trace/trace_log.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "src/obs/telemetry.hpp"

namespace home::trace {

namespace {

// Ingest-side telemetry (DESIGN.md §9).  References are process-stable, so
// resolve them once; each hit is then one relaxed branch + relaxed add.
struct IngestMetrics {
  obs::Counter& events = obs::Registry::global().counter("trace.ingest.events");
  obs::Counter& intern_hits =
      obs::Registry::global().counter("trace.intern.hits");
  obs::Counter& intern_misses =
      obs::Registry::global().counter("trace.intern.misses");
  obs::Gauge& shards = obs::Registry::global().gauge("trace.ingest.shards");
};

IngestMetrics& ingest_metrics() {
  static IngestMetrics m;
  return m;
}

}  // namespace

std::uint32_t StringTable::intern(const std::string& s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it != index_.end()) {
    ingest_metrics().intern_hits.add(1);
    return it->second;
  }
  ingest_metrics().intern_misses.add(1);
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.push_back(s);
  index_.emplace(s, id);
  return id;
}

const std::string& StringTable::lookup(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= strings_.size()) throw std::out_of_range("StringTable::lookup");
  return strings_[id];
}

std::size_t StringTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strings_.size();
}

namespace {

std::uint64_t next_log_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache mapping log_id -> shard pointer.  Small ring with
/// move-to-front; a miss just registers a fresh shard with the log (a thread
/// may own several shards of one log after eviction, which only adds a run
/// to the merge — correctness does not depend on one-shard-per-thread).
struct ShardCacheEntry {
  std::uint64_t log_id = 0;
  void* shard = nullptr;
};
constexpr std::size_t kShardCacheSize = 16;
thread_local ShardCacheEntry t_shard_cache[kShardCacheSize];
thread_local std::size_t t_shard_cache_next = 0;

}  // namespace

TraceLog::TraceLog() : log_id_(next_log_id()) {}

TraceLog::~TraceLog() = default;

TraceLog::Shard* TraceLog::shard_for_this_thread() {
  for (ShardCacheEntry& entry : t_shard_cache) {
    if (entry.log_id == log_id_) return static_cast<Shard*>(entry.shard);
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards_.push_back(std::move(shard));
    ingest_metrics().shards.set(static_cast<std::int64_t>(shards_.size()));
  }
  ShardCacheEntry& slot = t_shard_cache[t_shard_cache_next];
  t_shard_cache_next = (t_shard_cache_next + 1) % kShardCacheSize;
  slot.log_id = log_id_;
  slot.shard = raw;
  return raw;
}

Seq TraceLog::emit(Event e) {
  ingest_metrics().events.add(1);
  EventSink* sink = sink_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    Shard* shard = shard_for_this_thread();
    const Seq seq = seq_.fetch_add(1, std::memory_order_relaxed);
    e.seq = seq;
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->events.push_back(std::move(e));
    return seq;
  }
  // With a subscriber, seq assignment and delivery serialize under one mutex:
  // two emitters could otherwise draw seqs s < s' yet publish s' first, and a
  // streaming consumer (unlike sorted_events) cannot re-sort the past.
  Shard* shard = streaming_only_.load(std::memory_order_relaxed)
                     ? nullptr
                     : shard_for_this_thread();
  std::lock_guard<std::mutex> publish(publish_mu_);
  const Seq seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.seq = seq;
  if (shard != nullptr) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->events.push_back(e);
  }
  sink->on_event(e);
  return seq;
}

void TraceLog::set_sink(EventSink* sink) {
  // The publish lock flushes any delivery in flight, so after set_sink()
  // returns no emitter is still inside the previous sink.
  std::lock_guard<std::mutex> publish(publish_mu_);
  sink_.store(sink, std::memory_order_release);
}

void TraceLog::set_streaming_only(bool on) {
  streaming_only_.store(on, std::memory_order_relaxed);
}

std::vector<Event> TraceLog::sorted_events() const {
  // Snapshot every shard.  Each run is seq-sorted by construction: a shard is
  // only appended to by its owning thread, which stamps and pushes in order.
  std::vector<std::vector<Event>> runs;
  std::size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    runs.reserve(shards_.size());
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> slock(shard->mu);
      if (shard->events.empty()) continue;
      runs.push_back(shard->events);
      total += runs.back().size();
    }
  }
  std::vector<Event> out;
  out.reserve(total);
  if (runs.empty()) return out;
  if (runs.size() == 1) return std::move(runs.front());

  // Fast path: runs with pairwise-disjoint seq ranges (single-threaded
  // phases, or one shard doing nearly all the emitting) just concatenate.
  std::sort(runs.begin(), runs.end(),
            [](const std::vector<Event>& a, const std::vector<Event>& b) {
              return a.front().seq < b.front().seq;
            });
  bool disjoint = true;
  for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
    if (runs[r].back().seq >= runs[r + 1].front().seq) {
      disjoint = false;
      break;
    }
  }
  if (disjoint) {
    for (auto& run : runs) {
      out.insert(out.end(), std::make_move_iterator(run.begin()),
                 std::make_move_iterator(run.end()));
    }
    return out;
  }

  // General case: k-way merge by seq.
  struct Head {
    Seq seq;
    std::size_t run;
    std::size_t pos;
    bool operator>(const Head& other) const { return seq > other.seq; }
  };
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    heap.push(Head{runs[r].front().seq, r, 0});
  }
  while (!heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    out.push_back(std::move(runs[head.run][head.pos]));
    const std::size_t next = head.pos + 1;
    if (next < runs[head.run].size()) {
      heap.push(Head{runs[head.run][next].seq, head.run, next});
    }
  }
  return out;
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    n += shard->events.size();
  }
  return n;
}

void TraceLog::clear() {
  // Shards stay registered (emitting threads hold cached pointers); only
  // their contents are dropped.
  std::lock_guard<std::mutex> lock(shards_mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    shard->events.clear();
  }
  seq_.store(1, std::memory_order_relaxed);
}

}  // namespace home::trace
