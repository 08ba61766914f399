// The compile-time phase of HOME (Algorithm 1): traverse each function's
// srcCFG node list, extract every MPI call with its arguments and the
// dataflow facts at the call node (MHP position, barrier phase, must-lockset,
// one-thread constructs), and produce the instrumentation plan — the set of
// call sites to replace with HMPI_* wrappers.  MPI calls outside parallel
// regions are provably free of *thread*-safety violations and are filtered
// out; calls inside parallel regions that the static MHP + lockset engine
// proves safe (barrier-separated, master/single-guarded, critical-guarded)
// are additionally *pruned*, with the proof recorded as a reason string —
// the paper's overhead-reduction step, upgraded from syntactic to dataflow.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sast/cfg.hpp"
#include "src/sast/mhp.hpp"
#include "src/sast/parser.hpp"
#include "src/trace/mpi_routines.hpp"

namespace home::sast {

struct MpiCallSite {
  std::string routine;            ///< "MPI_Recv", ...
  /// The routine's row in the MPI routine table, which alone decides its
  /// class and argument positions; nullptr for a routine the table does not
  /// list (MPI_Comm_rank, ...).
  const trace::MpiRoutine* row = nullptr;
  std::vector<std::string> args;  ///< raw argument texts.
  std::string function;           ///< enclosing function name.
  int line = 0;
  int col = 0;
  bool in_parallel = false;
  /// Stable callsite label: "<function>:<line>:<routine>" — the same label
  /// scheme the runtime CallOpts uses, so the plan can key dynamic filtering.
  std::string label;

  // Dataflow facts at the call node (see mhp.hpp).
  /// Must-held critical locks, canonicalized (unnamed criticals share one
  /// lock), including those the calling context holds.
  std::set<std::string> locks;
  bool in_master = false;
  bool in_single = false;
  bool in_section = false;
  int fn_index = -1;  ///< index into AnalysisResult::cfgs / facts.functions.
  int node_id = -1;   ///< CFG node id within that function.
  bool pruned = false;             ///< statically proven thread-safe.
  std::string prune_reason;        ///< why, when pruned ("barrier-separated",
                                   ///< "master-guarded", ...).
};

struct InstrPlan {
  std::set<std::string> instrument;  ///< labels selected for wrapping.
  /// Labels inside parallel regions that the static engine proved safe, with
  /// the prune reason (plan file v2 records these as `prune <label> <why>`).
  std::map<std::string, std::string> pruned;
  std::size_t total_calls = 0;
  std::size_t instrumented_calls = 0;
  std::size_t filtered_calls = 0;    ///< provably serial calls.
  std::size_t pruned_calls = 0;      ///< parallel but statically proven safe.
};

struct AnalysisResult {
  std::vector<MpiCallSite> calls;
  InstrPlan plan;
  /// One CFG per function, aligned with unit.functions order.
  std::vector<Cfg> cfgs;
  /// Converged interprocedural dataflow facts (MHP, phases, locksets).
  ProgramFacts facts;
  /// Per function: identifiers whose value may depend on the executing
  /// thread (assigned from omp_get_thread_num, transitively).  Used to
  /// demote warning severity — "same tag" reasoning breaks when the tag is
  /// thread-dependent.  Self-contained (no AST pointers).
  std::map<std::string, std::set<std::string>> thread_dependent;
  /// Requested thread level literal if MPI_Init_thread is called with one
  /// ("MPI_THREAD_MULTIPLE", ...); empty if only MPI_Init appears.
  std::string requested_level;
  bool uses_plain_init = false;
  bool uses_init_thread = false;
};

/// Run the full compile-time analysis on a parsed translation unit.
/// Interprocedural position: each function is analysed under the converged
/// calling context (may-parallel, entry locks, always-master) computed by
/// compute_program_facts().
AnalysisResult analyze(const TranslationUnit& unit);

/// Convenience: parse + analyze.
AnalysisResult analyze_source(const std::string& source);

/// May call sites `i` and `j` (indices into result.calls) race — execute
/// concurrently on distinct threads with disjoint must-locksets?  i == j
/// asks about whole-team self-races.  `use_phases=false` ignores barrier
/// separation (prune-reason attribution).
bool sites_may_race(const AnalysisResult& result, std::size_t i,
                    std::size_t j, bool use_phases = true);

/// May site `i` race with itself (whole-team execution, no lock)?
bool site_self_race(const AnalysisResult& result, std::size_t i);

/// Does `arg`'s text reference an identifier whose value may depend on the
/// executing thread (see AnalysisResult::thread_dependent)?
bool thread_dependent_arg(const AnalysisResult& result,
                          const MpiCallSite& site, const std::string& arg);

/// Persist / load an instrumentation plan so the compile-time phase can hand
/// the callsite list to a separate dynamic-phase process (the
/// InstrumentFilter::kPlan mode of the runtime wrappers).  Writes and loads
/// the v2 format (`wrap <label>` / `prune <label> <reason>` lines); any other
/// header, including the bare-label v1 format, is rejected.
void save_plan_file(const std::string& path, const InstrPlan& plan);
InstrPlan load_plan_file(const std::string& path);

}  // namespace home::sast
