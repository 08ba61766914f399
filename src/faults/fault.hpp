// The injectable faults: their kinds, one injected fault, and the spec a
// seeded Injector draws them from.
//
// Faults are drawn as pure functions of (seed, kind, rank, site, per-site
// occurrence) via splitmix64, so the faults one run fired are a stable
// record for a fixed control flow.  That record travels in the run's
// explore::Schedule next to its scheduling decisions: replaying the schedule
// re-applies both, which makes a crashed, hung or faulted run a
// reproducible test input.
#pragma once

#include <cstdint>
#include <string>

namespace home::faults {

/// The injectable fault classes.  Message faults fire at the sender's
/// delivery point; call faults fire at every MPI entry; lock faults fire
/// with the homp lock/critical mutex held; queue faults stall the online
/// analysis consumer to spike EventQueue pressure.
enum class FaultKind : std::uint8_t {
  kMsgDelay,         ///< hold the envelope at the sender for `value` us.
  kMsgDrop,          ///< park the envelope; redeliver after `value` us.
  kRankStall,        ///< sleep the calling rank-thread for `value` us.
  kRankCrash,        ///< throw RankCrashError out of the MPI call.
  kLockHolderPause,  ///< sleep `value` us while holding the just-taken lock.
  kQueuePressure,    ///< stall the online analyzer consumer for `value` us.
};

inline constexpr int kFaultKindCount = 6;

const char* fault_kind_name(FaultKind kind);
/// Parse a name produced by fault_kind_name; false on unknown names.
bool parse_fault_kind(const std::string& name, FaultKind* out);

/// One injected fault, keyed exactly like an exploration decision so the
/// record is stable across runs for a fixed control flow.
struct FaultDecision {
  FaultKind kind = FaultKind::kRankStall;
  int rank = -1;               ///< world rank of the faulted thread (-1 n/a).
  std::string site;            ///< hook-point / callsite label.
  std::uint64_t occurrence = 0;///< per-(kind,rank,site) ordinal.
  std::uint64_t value = 0;     ///< microseconds (crashes record 0).
};

/// Probabilities and magnitudes of the generating injector.  All
/// probabilities are per-hook-hit; everything defaults to off so an
/// all-zero spec plus enabled hooks is the overhead baseline.
struct FaultSpec {
  double msg_delay_p = 0.0;
  double msg_drop_p = 0.0;
  double rank_stall_p = 0.0;
  double rank_crash_p = 0.0;
  double lock_pause_p = 0.0;
  double queue_pressure_p = 0.0;
  std::uint32_t max_delay_us = 2000;     ///< ceiling for delays/stalls/pauses.
  std::uint32_t redeliver_delay_us = 3000;  ///< dropped-message redelivery lag.
  /// Hard cap on injected crashes per run (a crashed rank stops calling MPI,
  /// so one crash per run is the realistic default).
  int max_crashes = 1;

  /// Compact "key=value,..." encoding used by --inject and the schedule
  /// header.
  /// Keys: delay, drop, stall, crash, lockpause, qpressure, max_delay_us,
  /// redeliver_us, max_crashes.  Unknown keys fail the parse.
  std::string to_string() const;
  static bool parse(const std::string& text, FaultSpec* out);
};

}  // namespace home::faults
