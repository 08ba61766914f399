// An independent race oracle for the detector's equivalence tests and
// benches.  It replays the raw trace through its own dense vector clocks,
// then checks every cross-thread access pair of each variable: O(k^2) for k
// accesses, with full two-sided clock compares.  It shares nothing with
// src/detect/ beyond trace::Event and trace::locksets_disjoint, so when the
// frontier engine agrees with it, that is evidence rather than tautology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/trace/event.hpp"

namespace home::oracle {

/// When two accesses of one variable on different threads, at least one a
/// write, race: the meanings of the detector's modes, restated.
enum class Mode {
  kHybrid,       ///< unordered by HB and disjoint locksets.
  kLocksetOnly,  ///< disjoint locksets.
  kHbOnly,       ///< unordered by HB that also orders release->acquire.
};

class PairwiseOracle {
 public:
  /// `events` must be seq-sorted.  The replay orders program order, thread
  /// fork/join, barriers (every arrival before every departure) and message
  /// send->recv, plus lock release->acquire under kHbOnly.
  PairwiseOracle(std::vector<trace::Event> events, Mode mode);

  /// events[i] happens-before events[j].
  bool ordered(std::size_t i, std::size_t j) const;

  /// Component `tid` of events[i]'s dense stamp.
  std::uint64_t stamp(std::size_t i, trace::Tid tid) const {
    const auto t = static_cast<std::size_t>(tid);
    return t < stamps_[i].size() ? stamps_[i][t] : 0;
  }

  /// events[i] and events[j] are accesses of one variable that race.
  bool racy(std::size_t i, std::size_t j) const;

  /// Per accessed variable: does any pair of its accesses race?
  std::map<trace::ObjId, bool> verdicts() const;

 private:
  std::vector<trace::Event> events_;
  Mode mode_;
  std::vector<std::vector<std::uint64_t>> stamps_;  ///< dense, per event.
};

}  // namespace home::oracle
