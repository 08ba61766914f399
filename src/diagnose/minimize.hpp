// ddmin schedule minimization (Zeller's delta debugging) over the recorded
// decision log of a violating run.  Only the scheduling decisions are
// minimized: the run's injected faults are carried through every candidate
// unchanged.
//
// Removing a Decision from a Schedule is well-defined because the replay
// strategy defaults every unrecorded hook hit (no delay / pick index 0):
// any decision subset is itself a replayable schedule.  Decision lookup is
// by (kind, rank, lane, site, occurrence) with *absolute* occurrence
// ordinals, so dropping one decision never renumbers the others.
//
// The oracle is a full replay: "does this subset still reproduce the same
// violation key?"  Replays are expensive (one complete controlled run), so
// the loop is budgeted by max_replays and the result records whether the
// final schedule was itself oracle-confirmed.
#pragma once

#include <cstddef>
#include <functional>

#include "src/explore/schedule.hpp"

namespace home::diagnose {

struct MinimizeOptions {
  /// Replay budget: oracle invocations before the loop gives up where it is.
  int max_replays = 48;
};

/// Returns true when the candidate schedule reproduces the violation.
using ReplayOracle = std::function<bool(const explore::Schedule&)>;

struct MinimizeResult {
  explore::Schedule schedule;        ///< the minimized (1-minimal-ish) log.
  bool verified = false;             ///< final schedule oracle-confirmed.
  int replays = 0;                   ///< oracle invocations spent.
  std::size_t original_decisions = 0;
};

/// Classic ddmin over `seed.decisions`.  The seed itself is oracle-checked
/// first; if it does not reproduce, the seed is returned unverified.
MinimizeResult ddmin_schedule(const explore::Schedule& seed,
                              const ReplayOracle& reproduces,
                              const MinimizeOptions& opts = {});

}  // namespace home::diagnose
