// Rank-parametric static communication matching & deadlock engine
// (ISSUE-8 tentpole).  Sits on top of the existing sast frontend: the
// parsed AST supplies per-rank op sequences (rank-guard projection), the
// MHP facts supply parallel-region imprecision flags, and the output
// closes the loop into the dynamic side twice over —
//
//   * StaticWarning diagnostics (new WarningClass values kUnmatchedSend /
//     kUnmatchedRecv / kCollectiveOrder / kDeadlock) with witnesses, each
//     deadlock carrying a candidate `.schedule` the dynamic engine can
//     replay toward the stuck state;
//   * an explore::StaticGuidance artifact naming the wildcard receive
//     sites that are genuinely ambiguous (and how ambiguous), the site
//     pairs that are provably ordered on every execution, and per-phase
//     ambiguity counts — consumed by the kGuided strategy and the
//     Sweeper's fingerprint pruning.
//
// The core is a small abstract machine per universe size N: rank guards
// (`rank == c`, `rank != c`, `rank < c`, ...) project each rank's op list;
// sends are eager (deposit into the destination's abstract queue and
// advance), collectives rendezvous, receives consume a matching queued
// message or block; wildcard receives fork the exploration (bounded DFS
// over match choices).  A verdict is kDefinite only when it holds on every
// DFS branch of some universe AND no imprecision was recorded for the ops
// involved (unknown guards, loops over MPI ops, parallel regions,
// non-constant tags/peers all demote to kPossible).
#pragma once

#include <string>
#include <vector>

#include "src/explore/guidance.hpp"
#include "src/explore/schedule.hpp"
#include "src/sast/diagnostics.hpp"

namespace home::sast {

/// Symbolic peer-rank expression of a send/recv, relative to the executing
/// rank and the universe size.
struct RankExpr {
  enum Kind : std::uint8_t {
    kConst,     ///< literal rank (value = c).
    kRelative,  ///< rank + c (c may be negative).
    kRing,      ///< (rank + c) % nprocs.
    kWildcard,  ///< MPI_ANY_SOURCE.
    kUnknown,   ///< anything the pattern matcher could not classify.
  };
  Kind kind = kUnknown;
  int c = 0;

  /// Concrete peer for executing rank `rank` in a universe of `n`;
  /// -1 = wildcard/unknown, -2 = out of range (op does not execute safely).
  int resolve(int rank, int n) const;
  std::string to_string() const;
};

enum class CommOpKind : std::uint8_t { kSend, kRecv, kCollective };

/// One extracted communication op (still rank-parametric).
struct CommOp {
  CommOpKind kind = CommOpKind::kSend;
  std::string routine;  ///< "MPI_Send", "MPI_Recv", "MPI_Barrier", ...
  RankExpr peer;        ///< dest (send) / src (recv); unused for collectives.
  int tag = -1;         ///< -1 = MPI_ANY_TAG or non-constant.
  bool tag_known = false;
  std::string comm;     ///< raw communicator text.
  std::string label;    ///< HOME_SITE label, else "<fn>:<line>:<routine>".
  int line = 0;
  bool conditional = false;  ///< under a non-rank guard (may not execute).
  bool in_loop = false;      ///< under an unmodeled loop (may repeat).
  int phase = 0;             ///< MPI_Barrier count before this op.
};

/// A deadlock/mismatch witness: the stuck-state description plus a
/// candidate schedule of the wildcard picks that steered there.
struct CommWitness {
  std::string description;       ///< per-rank stuck ops / wait-for cycle.
  explore::Schedule schedule;    ///< kWildcardPick decisions (may be empty).
  int universe = 0;              ///< N the witness was found at.
};

struct CommstatOptions {
  /// Universe sizes to instantiate; empty = derived from the program's
  /// rank-guard constants (max guard + 1, plus one extra rank).
  std::vector<int> universes;
};

struct CommstatResult {
  std::vector<StaticWarning> warnings;
  std::vector<CommWitness> witnesses;     ///< aligned with kDeadlock warnings.
  explore::StaticGuidance guidance;
  std::vector<int> universes;             ///< sizes actually checked.
  std::vector<std::string> imprecision;   ///< reasons findings were demoted.
  std::size_t ops = 0;                    ///< extracted communication ops.
  std::size_t states = 0;                 ///< abstract states explored.

  bool has_definite() const;
  std::string to_string() const;
};

/// Run the communication analysis over a parsed + analyzed program.
CommstatResult analyze_comm(const TranslationUnit& unit,
                            const AnalysisResult& analysis,
                            const CommstatOptions& options = {});

/// Convenience: parse + analyze + analyze_comm.
CommstatResult analyze_comm_source(const std::string& source,
                                   const CommstatOptions& options = {});

}  // namespace home::sast
