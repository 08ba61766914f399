// Pluggable exploration strategies (ISSUE-7 tentpole).
//
// A Strategy answers two questions the controlled runtime asks at hook
// points:
//
//   on_yield — "the calling thread is at a sync/blocking operation; how many
//              microseconds should it be held back?"  0 = run through.
//   on_pick  — "there are n eligible alternatives (wildcard senders, posted
//              receives); which index wins?"  0 = the runtime's default
//              (MPI arrival/post order).
//
// Strategies are seeded and deterministic as pure functions of the sequence
// of contexts they are asked about; all cross-run nondeterminism comes from
// the schedule itself.  The shipped portfolio:
//
//   kNone            hooks active, never perturbs (overhead baseline).
//   kRandomWalk      seeded coin-flip delays at every yield + uniform picks.
//   kPct             PCT-style: per-(rank,lane) random priorities realized as
//                    priority-proportional delays, with k random priority
//                    inversion points per run.
//   kDelayInjection  delays only MPI calls issued inside parallel regions —
//                    the paper's violation window — leaving picks alone.
//   kWildcardReorder pure matching nondeterminism: uniform re-picks among
//                    eligible senders/receives, no delays.
//   kGuided          static-guidance-driven (ISSUE-8): perturbs picks only at
//                    sites src/sast/commstat proved ambiguous, always away
//                    from the default arrival order; no delays.  Without a
//                    StaticGuidance it degrades to kWildcardReorder picks.
//   (replay)         feeds back a recorded Schedule, exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/explore/guidance.hpp"
#include "src/explore/schedule.hpp"

namespace home::explore {

/// Context for a yield (delay) decision.
struct YieldContext {
  HookKind kind = HookKind::kMpiCall;
  int rank = -1;
  int lane = 0;
  const char* site = nullptr;      ///< may be null (unnamed hook point).
  std::uint64_t occurrence = 0;    ///< per-(kind,rank,lane,site) ordinal.
  bool in_parallel = false;        ///< inside an OpenMP-style parallel region.
};

/// Context for a pick (choice) decision.
struct PickContext {
  HookKind kind = HookKind::kWildcardPick;
  int rank = -1;
  int lane = 0;
  const char* site = nullptr;
  std::uint64_t occurrence = 0;
  std::size_t n_eligible = 0;      ///< always >= 2 when consulted.
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual const char* name() const = 0;
  /// Delay (microseconds) to inject before the operation proceeds.
  virtual std::uint32_t on_yield(const YieldContext& ctx) = 0;
  /// Index in [0, ctx.n_eligible) of the alternative that wins.
  virtual std::size_t on_pick(const PickContext& ctx) = 0;
};

enum class StrategyKind : std::uint8_t {
  kNone,
  kRandomWalk,
  kPct,
  kDelayInjection,
  kWildcardReorder,
  kGuided,
};

const char* strategy_kind_name(StrategyKind kind);
/// Parse "none" / "random" / "pct" / "delay" / "wildcard" / "guided"; false
/// on unknown.
bool parse_strategy_kind(const std::string& name, StrategyKind* out);

std::unique_ptr<Strategy> make_strategy(
    StrategyKind kind, std::uint64_t seed,
    std::shared_ptr<const StaticGuidance> guidance = nullptr);

/// Replay: every decision recorded in `schedule` is re-issued at the same
/// (kind, rank, lane, site, occurrence); unrecorded hook hits take the
/// default (no delay / index 0).  The schedule must outlive the strategy.
std::unique_ptr<Strategy> make_replay_strategy(const Schedule& schedule);

/// Session-level exploration knobs (home::SessionConfig::explore): with
/// enabled=false (the default) no Explorer is installed and every hook point
/// stays on its one-load disabled fast path.
struct Options {
  bool enabled = false;
  StrategyKind strategy = StrategyKind::kRandomWalk;
  std::uint64_t seed = 1;
  /// When set, the run replays this record: its scheduling decisions
  /// (strategy/seed are ignored) and, when it injected faults, exactly those
  /// faults (home::FaultOptions are then ignored).
  std::shared_ptr<const Schedule> replay;
  /// Static guidance for StrategyKind::kGuided (and the Sweeper's
  /// fingerprint pruning); ignored by the other strategies.
  std::shared_ptr<const StaticGuidance> guidance;
};

}  // namespace home::explore
