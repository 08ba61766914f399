// Interprocedural call graph over the translation unit, with per-function
// calling contexts.  The context of a function records not just *whether* it
// may be called inside a parallel region but also which locks are guaranteed
// held and whether every parallel call site is master-serialized — facts the
// MHP/lockset engine propagates into callees to a fixed point (with widening
// for recursion).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sast/ast.hpp"
#include "src/sast/cfg.hpp"

namespace home::sast {

/// One call site: a CFG node in `caller` invoking `callee`.
struct CallSite {
  std::string caller;
  std::string callee;
  int caller_index = -1;  ///< index into unit.functions / the cfgs vector.
  int node = -1;          ///< CFG node id in the caller's CFG.
  int line = 0;
};

/// The calling context of a function, joined over every call site that may
/// execute inside an OpenMP parallel region.  All three facts are monotone
/// (may_parallel only flips to true; entry_locks and always_master only
/// shrink), so the interprocedural fixed point terminates; recursion is
/// widened by dropping cycle members to the bottom context when the
/// iteration cap is hit.
struct FnContext {
  bool may_parallel = false;   ///< some call path reaches this fn in parallel.
  bool locks_top = true;       ///< ⊤: no parallel call site processed yet.
  std::set<std::string> entry_locks;  ///< ∩ of locksets at parallel call sites.
  bool always_master = true;   ///< every parallel call site is master-only.
  bool recursive = false;      ///< member of a call-graph cycle.

  /// Meet a parallel call site's (lockset, master?) facts into the context.
  /// Returns true if the context changed.
  bool join_parallel_site(const std::set<std::string>& site_locks,
                          bool site_master);
};

class CallGraph {
 public:
  /// Builds the graph structure: call sites between the unit's functions
  /// (calls to undefined names are recorded as edges to absent nodes) and
  /// the recursion (SCC) classification.  `cfgs` is aligned with
  /// unit.functions.
  static CallGraph build(const TranslationUnit& unit,
                         const std::vector<Cfg>& cfgs);

  const std::vector<CallSite>& call_sites() const { return call_sites_; }
  const std::vector<std::string>& function_names() const { return names_; }
  bool defined(const std::string& fn) const { return index_.count(fn) > 0; }
  int index_of(const std::string& fn) const;

  /// True when `fn` participates in a call-graph cycle (incl. self-calls).
  bool recursive(const std::string& fn) const {
    return recursive_.count(fn) > 0;
  }

  /// Direct callees of `fn` (defined or not).
  const std::set<std::string>& callees(const std::string& fn) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> index_;
  std::vector<CallSite> call_sites_;
  std::map<std::string, std::set<std::string>> callees_;
  std::set<std::string> recursive_;
};

}  // namespace home::sast
