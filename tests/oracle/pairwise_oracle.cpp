#include "tests/oracle/pairwise_oracle.hpp"

#include <algorithm>

namespace home::oracle {

namespace {

using Clock = std::vector<std::uint64_t>;

void join(Clock& into, const Clock& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

bool leq(const Clock& a, const Clock& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > (i < b.size() ? b[i] : 0)) return false;
  }
  return true;
}

struct Barrier {
  std::vector<trace::Tid> arrived;
  Clock joined;
};

}  // namespace

PairwiseOracle::PairwiseOracle(std::vector<trace::Event> events, Mode mode)
    : events_(std::move(events)), mode_(mode) {
  std::map<trace::Tid, Clock> threads;
  std::map<trace::ObjId, Clock> locks;
  std::map<trace::ObjId, Clock> messages;
  std::map<trace::ObjId, Barrier> barriers;
  const bool lock_edges = mode_ == Mode::kHbOnly;

  stamps_.reserve(events_.size());
  for (const trace::Event& e : events_) {
    const auto child = static_cast<trace::Tid>(e.obj);
    Clock& clock = threads[e.tid];
    // Incoming edges, then the thread's own tick: the stamp.
    if (e.kind == trace::EventKind::kLockAcquire && lock_edges) {
      join(clock, locks[e.obj]);
    } else if (e.kind == trace::EventKind::kMsgRecv) {
      join(clock, messages[e.obj]);
    } else if (e.kind == trace::EventKind::kThreadJoin && child != e.tid) {
      join(clock, threads[child]);
    }
    const auto own = static_cast<std::size_t>(e.tid);
    if (clock.size() <= own) clock.resize(own + 1, 0);
    ++clock[own];
    stamps_.push_back(clock);

    // Outgoing edges.
    switch (e.kind) {
      case trace::EventKind::kLockRelease:
        if (lock_edges) join(locks[e.obj], clock);
        break;
      case trace::EventKind::kMsgSend:
        join(messages[e.obj], clock);
        break;
      case trace::EventKind::kThreadFork:
        join(threads[child], stamps_.back());
        break;
      case trace::EventKind::kThreadJoin:
        threads[child].clear();  // absorbed: a later event starts afresh.
        break;
      case trace::EventKind::kBarrier: {
        Barrier& b = barriers[e.obj];
        b.arrived.push_back(e.tid);
        join(b.joined, clock);
        if (e.aux > 0 && b.arrived.size() >= e.aux) {
          for (const trace::Tid t : b.arrived) join(threads[t], b.joined);
          barriers.erase(e.obj);
        }
        break;
      }
      default:
        break;
    }
  }
}

bool PairwiseOracle::ordered(std::size_t i, std::size_t j) const {
  return leq(stamps_[i], stamps_[j]);
}

bool PairwiseOracle::racy(std::size_t i, std::size_t j) const {
  const trace::Event& a = events_[i];
  const trace::Event& b = events_[j];
  if (!a.is_access() || !b.is_access() || a.obj != b.obj) return false;
  if (a.tid == b.tid || (!a.is_write() && !b.is_write())) return false;
  const bool disjoint = trace::locksets_disjoint(a.locks_held, b.locks_held);
  const bool unordered = !ordered(i, j) && !ordered(j, i);
  switch (mode_) {
    case Mode::kHybrid:
      return unordered && disjoint;
    case Mode::kLocksetOnly:
      return disjoint;
    case Mode::kHbOnly:
      return unordered;
  }
  return false;
}

std::map<trace::ObjId, bool> PairwiseOracle::verdicts() const {
  std::map<trace::ObjId, std::vector<std::size_t>> by_var;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].is_access()) by_var[events_[i].obj].push_back(i);
  }
  std::map<trace::ObjId, bool> out;
  for (const auto& [var, accesses] : by_var) {
    bool concurrent = false;
    for (std::size_t a = 0; a < accesses.size() && !concurrent; ++a) {
      for (std::size_t b = a + 1; b < accesses.size() && !concurrent; ++b) {
        concurrent = racy(accesses[a], accesses[b]);
      }
    }
    out[var] = concurrent;
  }
  return out;
}

}  // namespace home::oracle
