// Vector clocks for the happens-before analysis (Lamport / Mattern style).
//
// Clocks are dense vectors indexed by the ThreadRegistry's small tids and
// grow on demand; a missing component reads as zero, so clocks created before
// later threads register stay valid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/event.hpp"

namespace home::detect {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t nthreads) : c_(nthreads, 0) {}
  /// Copy from a raw component span (epoch-engine StampView materialization).
  VectorClock(const std::uint64_t* data, std::size_t n) : c_(data, data + n) {}

  std::uint64_t get(trace::Tid tid) const {
    const auto i = static_cast<std::size_t>(tid);
    return i < c_.size() ? c_[i] : 0;
  }

  const std::uint64_t* data() const { return c_.data(); }

  void set(trace::Tid tid, std::uint64_t value);

  /// Increment this thread's own component.
  void bump(trace::Tid tid) { set(tid, get(tid) + 1); }

  /// Pointwise maximum with another clock.
  void join(const VectorClock& other);

  /// Pointwise minimum with another clock (components past either clock's
  /// length read as zero, so the result truncates to the shorter size).
  /// Used to fold the retirement watermark across live threads.
  void meet(const VectorClock& other);

  /// True if *this <= other pointwise ("this happens-before-or-equals other").
  bool leq(const VectorClock& other) const;

  /// Neither clock dominates the other: the events are concurrent.
  static bool concurrent(const VectorClock& a, const VectorClock& b) {
    return !a.leq(b) && !b.leq(a);
  }

  bool operator==(const VectorClock& other) const;

  std::size_t size() const { return c_.size(); }
  std::string to_string() const;

 private:
  std::vector<std::uint64_t> c_;
};

}  // namespace home::detect
