#include "src/home/deadlock_monitor.hpp"

#include <sstream>

namespace home {

void DeadlockMonitor::on_call_begin(const simmpi::CallDesc& desc) {
  using trace::MpiCallType;
  std::lock_guard<std::mutex> lock(mu_);
  // Every edge of this blocking call carries the waiter's current epoch —
  // the scalar stamp that ties a wait to one specific blocking call.
  const detect::WaitStamp stamp{desc.rank, epochs_[desc.rank]};
  if (trace::routine_of(desc.type).collective()) {
    for (int r = 0; r < nranks_; ++r) {
      if (r != desc.rank) graph_.add_wait(desc.rank, r, stamp);
    }
    return;
  }
  switch (desc.type) {
    case MpiCallType::kRecv:
    case MpiCallType::kProbe:
      // Blocked on the (comm-local, here == world for COMM_WORLD) source;
      // a wildcard source waits on everyone else.
      if (desc.peer >= 0) {
        graph_.add_wait(desc.rank, desc.peer, stamp);
      } else {
        for (int r = 0; r < nranks_; ++r) {
          if (r != desc.rank) graph_.add_wait(desc.rank, r, stamp);
        }
      }
      break;
    case MpiCallType::kSend:
      // Only rendezvous/synchronous sends block on the receiver; the monitor
      // is conservative and records the edge — a completed eager send removes
      // it again instantly in on_call_end.
      if (desc.peer >= 0) graph_.add_wait(desc.rank, desc.peer, stamp);
      break;
    default:
      break;
  }
}

void DeadlockMonitor::on_call_end(const simmpi::CallDesc& desc) {
  std::lock_guard<std::mutex> lock(mu_);
  graph_.clear_waiter(desc.rank);
  ++epochs_[desc.rank];  // the next blocking call is a new epoch.
}

std::uint64_t DeadlockMonitor::epoch_of(int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(rank);
  return it == epochs_.end() ? 0 : it->second;
}

std::vector<std::vector<int>> DeadlockMonitor::cycles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_.find_cycles();
}

std::string DeadlockMonitor::diagnose() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto found = graph_.find_cycles();
  if (found.empty()) return "no wait cycle observed";
  std::ostringstream os;
  os << found.size() << " wait cycle(s) detected:";
  for (const auto& cycle : found) {
    os << " {";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i) os << ", ";
      os << "rank " << cycle[i];
      // The epoch the blocking call carries tells *which* call is stuck.
      const int next = cycle[(i + 1) % cycle.size()];
      const detect::WaitStamp stamp = graph_.stamp_of(cycle[i], next);
      if (stamp.rank >= 0) os << " (epoch " << stamp.value << ")";
    }
    os << "}";
  }
  return os.str();
}

}  // namespace home
