#include "src/trace/thread_registry.hpp"

#include <atomic>
#include <string>

#include "src/util/log.hpp"

namespace home::trace {
namespace {

// Cached registration for the calling thread, keyed by the registry's id
// rather than its address: runs reuse OS threads and stack slots, so a new
// registry at a dead one's address must not inherit its bindings, and a
// reset() (a new id) drops only its own registry's bindings.
struct LocalSlot {
  std::uint64_t registry = 0;  ///< ids start at 1.
  Tid tid = kNoTid;
};

thread_local LocalSlot tls_slot;

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ThreadRegistry::ThreadRegistry() : id_(next_registry_id()) {}

Tid ThreadRegistry::register_current_thread(Tid parent, int rank, bool is_rank_main) {
  const Tid tid = register_thread(parent, rank, is_rank_main);
  bind_current_thread(tid);
  return tid;
}

Tid ThreadRegistry::register_thread(Tid parent, int rank, bool is_rank_main) {
  std::lock_guard<std::mutex> lock(mu_);
  const Tid tid = static_cast<Tid>(threads_.size());
  threads_.push_back(ThreadInfo{tid, parent, rank, is_rank_main});
  return tid;
}

void ThreadRegistry::bind_current_thread(Tid tid) {
  tls_slot = LocalSlot{id_.load(std::memory_order_relaxed), tid};
  // Name the thread for log lines and the telemetry span timeline:
  // "rank0.main" / "rank1.w3" for rank-attached threads, "t<tid>" otherwise.
  const ThreadInfo ti = info(tid);
  std::string name;
  if (ti.rank != kNoRank) {
    name = "rank";
    name += std::to_string(ti.rank);
    if (ti.is_rank_main) {
      name += ".main";
    } else {
      name += ".w";
      name += std::to_string(tid);
    }
  } else {
    name = "t";
    name += std::to_string(tid);
  }
  util::set_current_thread_name(std::move(name));
}

Tid ThreadRegistry::current_tid() const {
  if (tls_slot.registry == id_.load(std::memory_order_relaxed)) {
    return tls_slot.tid;
  }
  return kNoTid;
}

int ThreadRegistry::current_rank() const {
  const Tid tid = current_tid();
  if (tid == kNoTid) return kNoRank;
  std::lock_guard<std::mutex> lock(mu_);
  return threads_[static_cast<std::size_t>(tid)].rank;
}

bool ThreadRegistry::current_is_rank_main() const {
  const Tid tid = current_tid();
  if (tid == kNoTid) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return threads_[static_cast<std::size_t>(tid)].is_rank_main;
}

ThreadInfo ThreadRegistry::info(Tid tid) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tid < 0 || static_cast<std::size_t>(tid) >= threads_.size()) return ThreadInfo{};
  return threads_[static_cast<std::size_t>(tid)];
}

int ThreadRegistry::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
  id_.store(next_registry_id(), std::memory_order_relaxed);
}

}  // namespace home::trace
