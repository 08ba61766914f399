// Epoch stamps: the FastTrack-style representation that makes the clock
// engine O(1) on the totally-ordered common case.
//
// IncrementalHb::advance returns a StampView: the issuing thread's epoch
// (tid, value-after-bump) plus a raw span of its live clock, produced
// allocation-free and valid only until the next advance() call.  Everything
// retained past that call — frontier records, the matcher's calls — keeps
// only the 16-byte epoch.
//
// Why the epoch is enough (the FastTrack lemma, which holds here because
// IncrementalHb bumps the issuing thread's component at *every* event and
// publishes only full post-bump stamps along sync edges): for a stamp E of
// event e with epoch (t, v) and any clock C stamped at-or-after e,
//     full(E) <= C  iff  v <= C[t].
// So retained-vs-incoming orderings, retained-vs-watermark retirement (a
// pointwise meet of live thread clocks), and the V2 finalize checks are all
// answerable from the epoch in O(1) — the engine never degrades verdicts,
// only representation cost.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/detect/vector_clock.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

/// The live view of the event being processed: epoch + a span of the
/// issuing thread's clock.  The span points into IncrementalHb state and is
/// invalidated by the next advance().
struct StampView {
  trace::Tid tid = trace::kNoTid;
  std::uint64_t value = 0;              ///< own component, after the bump.
  const std::uint64_t* clock = nullptr;
  std::size_t size = 0;

  std::uint64_t get(trace::Tid t) const {
    const auto i = static_cast<std::size_t>(t);
    return i < size ? clock[i] : 0;
  }
  /// Materialize a private VectorClock (post-mortem HbIndex stamps).
  VectorClock to_clock() const { return VectorClock(clock, size); }
};

}  // namespace home::detect
