// Telemetry registry: lock-free counters / gauges / histograms every layer
// of the pipeline registers into by name (ISSUE-4 tentpole).
//
// HOME's pitch is *low-overhead* detection, so the tool must be able to
// account for its own time and dropped work.  The registry is always
// compiled in; when telemetry is disabled every hot-path hit costs exactly
// one relaxed atomic load and a predictable branch (see enabled()).  When
// enabled, counters are relaxed fetch_adds, gauges are relaxed stores with a
// CAS high-water mark, and histograms are power-of-two bucket increments —
// no mutex is ever taken on a metric hot path.
//
// Naming convention (DESIGN.md §9): dotted lowercase `layer.component.metric`
// — e.g. `trace.ingest.events`, `online.queue.drops.capacity`,
// `detect.pairs_checked`.  References returned by Registry::global() are
// stable for the process lifetime (reset() zeroes in place, it never
// invalidates), so subsystems cache them at construction and bump without a
// name lookup.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace home::obs {

/// Process-wide enable switch.  Disabled telemetry reduces every counter /
/// gauge / histogram / span hit to this one relaxed load + branch.
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
inline bool enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

/// Monotone event counter (relaxed atomic add).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level with a high-water mark (e.g. queue depth, lag).
class Gauge {
 public:
  void set(std::int64_t x) {
    if (!enabled()) return;
    v_.store(x, std::memory_order_relaxed);
    raise_high_water(x);
  }
  void add(std::int64_t d) {
    if (!enabled()) return;
    raise_high_water(v_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t high_water() const {
    return hwm_.load(std::memory_order_relaxed);
  }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    hwm_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t x) {
    std::int64_t cur = hwm_.load(std::memory_order_relaxed);
    while (x > cur &&
           !hwm_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> hwm_{0};
};

/// Summary a histogram reports: the same statistics util::Accumulator keeps
/// (count / mean / stddev / min / max), plus bucket-interpolated percentiles.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Lock-free histogram for non-negative samples (durations in ns, batch
/// sizes).  Keeps atomic count / sum / sum-of-squares / min / max — the
/// moments util::Accumulator derives its summary from — plus power-of-two
/// buckets for approximate percentiles.
class Histogram {
 public:
  static constexpr int kBuckets = 48;  ///< covers values up to 2^47.

  void observe(double x);
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> sum_sq_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// One registry entry, flattened for the exporters.
struct MetricRow {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  std::uint64_t count = 0;       ///< counter value.
  std::int64_t value = 0;        ///< gauge value.
  std::int64_t high_water = 0;   ///< gauge high-water mark.
  HistogramSnapshot hist;        ///< histogram summary.
};

class Registry {
 public:
  /// The process-wide registry every subsystem registers into.
  static Registry& global();

  /// Find-or-create by name; the reference is stable for the process
  /// lifetime.  Registration takes a mutex (call once, at construction, and
  /// cache the reference); the returned metric itself is lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Flattened name-sorted view for the exporters.
  std::vector<MetricRow> snapshot() const;

  /// Zero every metric in place (references stay valid) — for tests and the
  /// overhead bench.
  void reset();

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

 private:
  struct Impl;
  const std::unique_ptr<Impl> impl_;
};

}  // namespace home::obs
