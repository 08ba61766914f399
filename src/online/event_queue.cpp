#include "src/online/event_queue.hpp"

#include <algorithm>
#include <chrono>

#include "src/obs/telemetry.hpp"

namespace home::online {

namespace {

// Queue-side telemetry (DESIGN.md §9).  References are process-stable;
// resolve once.
struct QueueMetrics {
  obs::Counter& drops_capacity =
      obs::Registry::global().counter("online.queue.drops.capacity");
  obs::Counter& drops_shutdown =
      obs::Registry::global().counter("online.queue.drops.shutdown");
  obs::Counter& blocked_ns =
      obs::Registry::global().counter("online.queue.blocked_ns");
  obs::Gauge& depth = obs::Registry::global().gauge("online.queue.depth");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics m;
  return m;
}

}  // namespace

EventQueue::EventQueue(std::size_t capacity, BackpressurePolicy policy)
    : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

PushOutcome EventQueue::push_accounted(trace::Event e) {
  std::unique_lock<std::mutex> lock(mu_);
  if (policy_ == BackpressurePolicy::kBlock && q_.size() >= capacity_ &&
      !closed_) {
    // Only time the wait when we actually have to wait — the common case
    // (space available) should not touch the clock at all.
    const auto t0 = std::chrono::steady_clock::now();
    not_full_.wait(lock, [this] { return q_.size() < capacity_ || closed_; });
    const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    blocked_ns_ += static_cast<std::uint64_t>(waited);
    queue_metrics().blocked_ns.add(static_cast<std::uint64_t>(waited));
  }
  if (closed_) {
    ++dropped_shutdown_;
    queue_metrics().drops_shutdown.add(1);
    return PushOutcome::kDroppedShutdown;
  }
  if (q_.size() >= capacity_) {
    ++dropped_capacity_;
    queue_metrics().drops_capacity.add(1);
    return PushOutcome::kShedCapacity;
  }
  q_.push_back(std::move(e));
  if (q_.size() > max_depth_) {
    max_depth_ = q_.size();
    queue_metrics().depth.set(static_cast<std::int64_t>(max_depth_));
  }
  lock.unlock();
  not_empty_.notify_one();
  return PushOutcome::kAccepted;
}

bool EventQueue::pop(trace::Event* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return !q_.empty() || closed_; });
  if (q_.empty()) return false;
  *out = std::move(q_.front());
  q_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void EventQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t EventQueue::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_capacity_ + dropped_shutdown_;
}

std::size_t EventQueue::dropped_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_capacity_;
}

std::size_t EventQueue::dropped_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_shutdown_;
}

std::uint64_t EventQueue::blocked_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_ns_;
}

std::size_t EventQueue::max_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_depth_;
}

std::size_t EventQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

}  // namespace home::online
