// Eraser-style lockset analysis (Savage et al., TOCS 1997), in the paper's
// pairwise formulation IsPotentialLockSetRace(i, j): different threads, same
// location, at least one write, disjoint locksets at the two accesses.  The
// race detector applies the same lockset test to every candidate pair
// (trace::locksets_disjoint).
#pragma once

#include "src/trace/event.hpp"

namespace home::detect {

/// Pairwise lockset-race check from the paper's Section IV.D.
bool is_potential_lockset_race(const trace::Event& a, const trace::Event& b);

}  // namespace home::detect
