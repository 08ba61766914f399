// Schedule-exploration subsystem: the replayable record of one run.
//
// A Schedule is the compact record of every nondeterministic choice made
// during one controlled run: the scheduling decisions a strategy took
// (delays injected at yield points, explicit choices at pick points such as
// wildcard-source message selection and posted-receive matching) and the
// faults a faults::Injector fired.  Scheduling decisions are keyed by
// (hook kind, rank, lane, site, per-key occurrence) and faults by
// (kind, rank, site, per-key occurrence); both keys are stable across runs
// for a fixed control flow — each (rank, lane) executes its program in
// order — so replaying the record (Options::replay) re-derives the same
// choices and faults and therefore the same violating interleaving.
//
// Serialization is a line-oriented text format (one decision or fault per
// line, plus strategy/seed and fault spec/seed metadata) so violating runs
// can be attached to bug reports and replayed with
// `toolrun --replay <file>`.  Version 1 files (no fault lines) still load.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/faults/fault.hpp"

namespace home::explore {

/// Where in the runtime a scheduling decision can be taken.  Yield kinds
/// consult Strategy::on_yield (delay injection); pick kinds consult
/// Strategy::on_pick (choosing among eligible alternatives).
enum class HookKind : std::uint8_t {
  // --- yield points (homp sync operations) ---------------------------------
  kBarrier,           ///< team barrier arrival (homp::barrier / worksharing).
  kCritical,          ///< entry to a named critical section.
  kLockAcquire,       ///< explicit homp::Lock acquisition.
  kChunkClaim,        ///< dynamic worksharing chunk / section / single claim.
  // --- yield points (simmpi blocking decisions) ----------------------------
  kMpiCall,           ///< any other MPI entry point (send/recv/collective...).
  kWaitTest,          ///< MPI_Wait / MPI_Test on a request.
  kProbe,             ///< MPI_Probe / MPI_Iprobe.
  kCollectiveArrive,  ///< arrival order at a collective rendezvous.
  // --- pick points (simmpi matching decisions) -----------------------------
  kRecvMatch,         ///< arriving message chooses among matching posted recvs.
  kWildcardPick,      ///< wildcard-source receive chooses among queued senders.
};

inline constexpr int kHookKindCount = 10;

const char* hook_kind_name(HookKind kind);
/// Parse a name produced by hook_kind_name; returns false on unknown names.
bool parse_hook_kind(const std::string& name, HookKind* out);

/// One recorded decision.  `is_pick` distinguishes the two decision spaces:
/// picks store the chosen index among the eligible alternatives; yields
/// store the injected delay in microseconds.
struct Decision {
  HookKind kind = HookKind::kMpiCall;
  int rank = -1;               ///< world rank of the deciding thread (-1 n/a).
  int lane = 0;                ///< homp thread slot within the rank (0 = main).
  std::string site;            ///< callsite label / hook-point name.
  std::uint64_t occurrence = 0;///< per-(kind,rank,lane,site) ordinal.
  bool is_pick = false;
  std::uint64_t value = 0;     ///< pick: chosen index; yield: delay micros.
};

/// Stable lookup key for a decision ("kind|rank|lane|site").  The occurrence
/// ordinal is kept separate so per-key counters can be maintained cheaply.
std::string decision_key(HookKind kind, int rank, int lane,
                         const std::string& site);

/// A full recorded run: strategy metadata, the scheduling decision log and
/// the run's injected faults.
struct Schedule {
  std::string strategy;        ///< strategy name that produced this run.
  std::uint64_t seed = 0;      ///< strategy seed.
  std::vector<Decision> decisions;
  /// The generating spec and seed of the run's fault injector; unset when
  /// the run had none.  A record cut short before any fault fired still
  /// names the faults that re-derive its run.
  std::optional<faults::FaultSpec> fault_spec;
  std::uint64_t fault_seed = 0;
  /// Every fault the injector fired, in firing order (needs fault_spec).
  /// Replay applies exactly these.
  std::vector<faults::FaultDecision> faults;

  /// True when the record holds neither a decision nor a fault.
  bool empty() const { return decisions.empty() && faults.empty(); }

  std::string to_string() const;
  /// Parse the text produced by to_string; returns false on malformed input.
  static bool parse(const std::string& text, Schedule* out);

  /// File round-trip helpers; save overwrites, load returns false on I/O or
  /// parse failure.
  bool save(const std::string& path) const;
  static bool load(const std::string& path, Schedule* out);
};

}  // namespace home::explore
