#include "src/obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace home::obs {

namespace {

/// Relaxed CAS add for atomic doubles (portable; fetch_add on
/// atomic<double> is C++20 but not guaranteed lock-free everywhere).
void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

/// Bucket i holds samples in [2^(i-1), 2^i); bucket 0 holds [0, 1).
int bucket_index(double x) {
  if (!(x >= 1.0)) return 0;
  const int idx = 1 + static_cast<int>(std::floor(std::log2(x)));
  return std::min(idx, Histogram::kBuckets - 1);
}

/// Geometric midpoint of a bucket's range — the value a sample in that
/// bucket is reported as by the percentile interpolation.
double bucket_representative(int idx) {
  if (idx == 0) return 0.5;
  const double lo = std::exp2(idx - 1);
  return lo * std::sqrt(2.0);
}

}  // namespace

void Histogram::observe(double x) {
  if (!enabled()) return;
  if (x < 0.0) x = 0.0;
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_add(sum_sq_, x * x);
  if (prev == 0) {
    // First sample seeds min/max; racing observers fix it up below.
    min_.store(x, std::memory_order_relaxed);
    max_.store(x, std::memory_order_relaxed);
  }
  atomic_min(min_, x);
  atomic_max(max_, x);
  buckets_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.mean = s.sum / static_cast<double>(s.count);
  const double sum_sq = sum_sq_.load(std::memory_order_relaxed);
  if (s.count > 1) {
    const double var =
        std::max(0.0, (sum_sq - s.sum * s.mean) /
                          static_cast<double>(s.count - 1));
    s.stddev = std::sqrt(var);
  }
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);

  const auto percentile = [this, &s](double p) {
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(s.count - 1) / 100.0);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen > target) {
        return std::clamp(bucket_representative(i), s.min, s.max);
      }
    }
    return s.max;
  };
  s.p50 = percentile(50.0);
  s.p95 = percentile(95.0);
  s.p99 = percentile(99.0);
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  sum_sq_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mu;
  // unique_ptr values keep references stable across rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

// Built eagerly: a lazily created Impl raced when two threads registered
// their first metrics at once (runs of a sweep start concurrently).
Registry::Registry() : impl_(std::make_unique<Impl>()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  // Leaked: metric references handed to subsystems must outlive every
  // static-destruction-order combination.
  static Registry* g = new Registry();
  return *g;
}

Counter& Registry::counter(const std::string& name) {
  Impl* im = impl_.get();
  std::lock_guard<std::mutex> lock(im->mu);
  auto& slot = im->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl* im = impl_.get();
  std::lock_guard<std::mutex> lock(im->mu);
  auto& slot = im->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl* im = impl_.get();
  std::lock_guard<std::mutex> lock(im->mu);
  auto& slot = im->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<MetricRow> Registry::snapshot() const {
  const Impl* im = impl_.get();
  std::vector<MetricRow> rows;
  std::lock_guard<std::mutex> lock(im->mu);
  rows.reserve(im->counters.size() + im->gauges.size() +
               im->histograms.size());
  for (const auto& [name, c] : im->counters) {
    MetricRow row;
    row.kind = MetricRow::Kind::kCounter;
    row.name = name;
    row.count = c->value();
    rows.push_back(std::move(row));
  }
  for (const auto& [name, g] : im->gauges) {
    MetricRow row;
    row.kind = MetricRow::Kind::kGauge;
    row.name = name;
    row.value = g->value();
    row.high_water = g->high_water();
    rows.push_back(std::move(row));
  }
  for (const auto& [name, h] : im->histograms) {
    MetricRow row;
    row.kind = MetricRow::Kind::kHistogram;
    row.name = name;
    row.hist = h->snapshot();
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return rows;
}

void Registry::reset() {
  Impl* im = impl_.get();
  std::lock_guard<std::mutex> lock(im->mu);
  for (auto& [name, c] : im->counters) c->reset();
  for (auto& [name, g] : im->gauges) g->reset();
  for (auto& [name, h] : im->histograms) h->reset();
}

}  // namespace home::obs
