// Static must-lockset analysis over the srcCFG: for every node, the set of
// `omp critical` names guaranteed to be held whenever the node executes,
// computed as the intersection over all CFG paths from the function entry
// (classical forward must-dataflow, not the lexical nesting of criticals).
//
// Per the OpenMP spec all *unnamed* critical constructs share one global
// lock; they are canonicalized to kUnnamedCriticalLock so two distinct
// unnamed regions compare equal (and distinct from "no lock held").
#pragma once

#include <set>
#include <string>
#include <vector>

#include "src/sast/cfg.hpp"

namespace home::sast {

/// Canonical lock name for unnamed `#pragma omp critical` constructs.
inline constexpr const char* kUnnamedCriticalLock = "<omp_unnamed_critical>";

/// Maps a parsed critical name ("" = unnamed) to its canonical lock name.
std::string canonical_critical_name(const std::string& parsed_name);

/// One lattice element: ⊤ (top, "every lock" — the value of not-yet-reached
/// nodes) or a concrete set of held lock names.  Meet is set intersection
/// with ⊤ as the identity.
struct LockState {
  bool top = true;
  std::set<std::string> locks;

  void meet(const LockState& other);
  bool operator==(const LockState& other) const {
    return top == other.top && locks == other.locks;
  }
};

/// Runs the must-lockset fixed point over `cfg`.  `entry_locks` seeds the
/// function entry (locks guaranteed held by every caller — interprocedural
/// context from the call graph).  Returns one state per CFG node: the locks
/// held *on entry to* the node.  Unreachable nodes stay ⊤.
std::vector<LockState> compute_must_locksets(
    const Cfg& cfg, const std::set<std::string>& entry_locks);

}  // namespace home::sast
