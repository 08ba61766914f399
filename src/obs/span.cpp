#include "src/obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "src/obs/telemetry.hpp"
#include "src/util/thread_name.hpp"

namespace home::obs {

namespace {

/// Per-thread bounded ring.  Only the owning thread pushes; the mutex makes
/// snapshot readers (collect_spans) safe and is uncontended on the push path.
struct SpanRing {
  std::mutex mu;
  std::vector<FinishedSpan> ring;
  std::size_t next = 0;
  bool wrapped = false;
  std::uint64_t dropped = 0;
  std::string label;                  ///< thread name at last push.
  std::uint64_t label_version = 0;    ///< util thread-name version seen.
  int display_tid = 0;
};

/// The label of a ring whose thread has no name: "t<display tid>".
std::string default_label(int display_tid) {
  // (built via insert to dodge a GCC 12 -Wrestrict false positive on
  // char-literal + to_string concatenation)
  std::string label = std::to_string(display_tid);
  label.insert(label.begin(), 't');
  return label;
}

struct RingDirectory {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanRing>> rings;
  int next_tid = 1;
};

RingDirectory& directory() {
  // Leaked: emitting threads hold raw ring pointers in TLS and may outlive
  // any static destruction order.
  static RingDirectory* dir = new RingDirectory();
  return *dir;
}

SpanRing* ring_for_this_thread() {
  thread_local SpanRing* t_ring = nullptr;
  if (t_ring != nullptr) return t_ring;
  auto ring = std::make_unique<SpanRing>();
  SpanRing* raw = ring.get();
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  raw->display_tid = dir.next_tid++;
  raw->label = default_label(raw->display_tid);
  dir.rings.push_back(std::move(ring));
  t_ring = raw;
  return raw;
}

void push_record(FinishedSpan&& rec) {
  SpanRing* ring = ring_for_this_thread();
  std::lock_guard<std::mutex> lock(ring->mu);
  // Refresh the thread label when the registry (or anyone) renamed us since
  // the last push — one TLS counter compare per record.  A pooled thread's
  // name is cleared between jobs, and its records keep the label of the job
  // that pushed them.
  const std::uint64_t version = util::current_thread_name_version();
  if (version != ring->label_version) {
    ring->label_version = version;
    const std::string& name = util::current_thread_name();
    ring->label = name.empty() ? default_label(ring->display_tid) : name;
  }
  rec.thread = ring->label;
  rec.display_tid = ring->display_tid;
  if (ring->ring.size() < kRingCapacity) {
    ring->ring.push_back(std::move(rec));
    ring->next = ring->ring.size() % kRingCapacity;
    return;
  }
  ring->ring[ring->next] = std::move(rec);
  ring->next = (ring->next + 1) % kRingCapacity;
  ring->wrapped = true;
  ++ring->dropped;
  Registry::global().counter("obs.spans.dropped").add(1);
}

}  // namespace

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  FinishedSpan rec;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.dur_ns = now_ns() - start_ns_;
  push_record(std::move(rec));
}

void instant(const std::string& name, const std::string& detail) {
  if (!enabled()) return;
  FinishedSpan rec;
  rec.name = name;
  rec.detail = detail;
  rec.start_ns = now_ns();
  rec.is_instant = true;
  push_record(std::move(rec));
}

namespace {

void push_flow(const std::string& name, std::uint64_t id,
               const std::string& detail, char phase) {
  if (!enabled()) return;
  FinishedSpan rec;
  rec.name = name;
  rec.detail = detail;
  rec.start_ns = now_ns();
  rec.is_instant = true;  // zero-duration: skipped by span aggregation.
  rec.flow_id = id;
  rec.flow_phase = phase;
  push_record(std::move(rec));
}

}  // namespace

void flow_start(const std::string& name, std::uint64_t id,
                const std::string& detail) {
  push_flow(name, id, detail, 's');
}

void flow_finish(const std::string& name, std::uint64_t id,
                 const std::string& detail) {
  push_flow(name, id, detail, 'f');
}

std::vector<FinishedSpan> collect_spans() {
  RingDirectory& dir = directory();
  std::vector<FinishedSpan> out;
  {
    std::lock_guard<std::mutex> lock(dir.mu);
    for (const auto& ring : dir.rings) {
      std::lock_guard<std::mutex> rlock(ring->mu);
      for (const FinishedSpan& rec : ring->ring) {
        out.push_back(rec);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FinishedSpan& a, const FinishedSpan& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::uint64_t spans_dropped() {
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  std::uint64_t n = 0;
  for (const auto& ring : dir.rings) {
    std::lock_guard<std::mutex> rlock(ring->mu);
    n += ring->dropped;
  }
  return n;
}

void reset_spans() {
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  for (const auto& ring : dir.rings) {
    std::lock_guard<std::mutex> rlock(ring->mu);
    ring->ring.clear();
    ring->next = 0;
    ring->wrapped = false;
    ring->dropped = 0;
  }
}

}  // namespace home::obs
