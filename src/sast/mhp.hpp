// May-happen-in-parallel analysis over the srcCFG: a fixed-point dataflow
// engine that computes, per CFG node,
//   (1) whether the node may execute inside an OpenMP parallel region
//       (lexically or via the interprocedural call-graph context),
//   (2) a *barrier-phase interval* per enclosing parallel region — two nodes
//       of the same region whose intervals are disjoint are separated by an
//       `omp barrier` (or a worksharing construct's implied barrier) on
//       every execution and therefore can NOT happen in parallel,
//   (3) the innermost one-thread construct (master / single / section)
//       serializing the node, and
//   (4) the must-lockset (see static_lockset.hpp), seeded with the locks the
//       calling context guarantees.
//
// Lattices and widening are documented in DESIGN.md §8.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sast/callgraph.hpp"
#include "src/sast/cfg.hpp"
#include "src/sast/static_lockset.hpp"

namespace home::sast {

/// Virtual region id representing "the caller's parallel region" for
/// functions whose context says they may be called inside one.
inline constexpr int kContextRegion = -2;

/// Barrier-crossing counts saturate here and widen to "unbounded" — reached
/// only by barriers inside loops, where phase separation is unprovable.
inline constexpr int kPhaseCap = 64;

/// [min, max] barriers crossed since the enclosing region's entry on any
/// path reaching the node.  `unbounded` means max was widened to infinity.
struct PhaseInterval {
  int min = 0;
  int max = 0;
  bool unbounded = false;

  bool overlaps(const PhaseInterval& o) const {
    const bool this_below = !unbounded && max < o.min;
    const bool other_below = !o.unbounded && o.max < min;
    return !(this_below || other_below);
  }
  std::string to_string() const;
};

/// Per-CFG-node dataflow facts.  Plain data only — no Stmt pointers — so the
/// facts stay valid after the translation unit is destroyed (analyze_source
/// returns them by value).
struct NodeFacts {
  bool reachable = false;
  bool in_parallel = false;
  /// Enclosing parallel regions, outermost first: kOmpParallelBegin node ids,
  /// with kContextRegion prepended when the calling context is parallel.
  std::vector<int> region_chain;
  /// Innermost one-thread construct: the kOmpWorksharing node id of the
  /// enclosing master/single/section body, kContextRegion when the calling
  /// context is always-master, or -1 when the node is team-executed.
  int exclusive = -1;
  bool in_master = false;
  bool in_single = false;
  bool in_section = false;
  /// Barrier-phase interval per enclosing region (keys = region_chain ids).
  std::map<int, PhaseInterval> phases;
  /// Must-held lock names (dataflow, includes context entry locks).
  std::set<std::string> locks;
};

/// The facts of one function plus the MHP oracle over them.
class FunctionFacts {
 public:
  const NodeFacts& at(int node) const {
    return nodes_.at(static_cast<std::size_t>(node));
  }
  std::size_t size() const { return nodes_.size(); }

  /// May two *distinct* nodes execute concurrently on different threads of
  /// one process?  `use_phases=false` ignores barrier separation (used to
  /// attribute prune reasons).
  bool mhp(int a, int b, bool use_phases = true) const;

  /// May one site execute concurrently with *itself* (whole-team execution)?
  bool self_mhp(int a) const;

  /// mhp / self_mhp refined by must-locksets: concurrent AND not serialized
  /// by a common critical lock.
  bool mhp_unguarded(int a, int b, bool use_phases = true) const;
  bool self_unguarded(int a) const;

  /// Shortest entry->node line path ("12 -> 14 -> 17"), the warning witness.
  std::string witness(int node) const;
  /// Compact fact description ("parallel phase [1,1] single locks {net}").
  std::string describe(int node) const;

  // Filled by compute_program_facts.
  std::vector<NodeFacts> nodes_;
  std::vector<int> bfs_parent_;
  std::vector<int> lines_;
  bool context_parallel_ = false;
  bool context_master_ = false;
};

/// Whole-program facts: per-function node facts (aligned with the cfgs
/// vector) and the converged interprocedural contexts.
struct ProgramFacts {
  std::vector<FunctionFacts> functions;
  std::map<std::string, FnContext> contexts;
};

/// Runs the full interprocedural fixed point: call-graph context propagation
/// (with widening for recursion) interleaved with per-function MHP + lockset
/// passes until the contexts converge.
ProgramFacts compute_program_facts(const TranslationUnit& unit,
                                   const std::vector<Cfg>& cfgs);

}  // namespace home::sast
