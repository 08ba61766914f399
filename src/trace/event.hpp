// Event model for HOME's dynamic analysis.
//
// The paper instruments hybrid MPI/OpenMP programs (via MPI wrappers and
// Intel Pin probes) and feeds a stream of events to a lockset +
// happens-before analysis.  Our substrates (simmpi / homp) emit this event
// stream natively.  An Event is deliberately flat and cheap to copy; the only
// variable-size member is the lockset snapshot, which is tiny in practice.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/mpi_routines.hpp"

namespace home::trace {

using Tid = std::int32_t;        ///< Global (process-wide) small thread id.
using Seq = std::uint64_t;       ///< Global total-order stamp (atomic counter).
using ObjId = std::uint64_t;     ///< Memory location / lock / barrier / message id.

inline constexpr Tid kNoTid = -1;
inline constexpr int kNoRank = -1;

/// Sanity ceiling on thread ids.  Registry tids are small dense ints and the
/// analyses size per-thread state by tid, so a tid at or above this is
/// damage, not data: both trace loaders reject such an event and the HB
/// replay refuses it (tids_in_range).
inline constexpr Tid kMaxTid = 1 << 16;

enum class EventKind : std::uint8_t {
  kMemRead,      ///< obj = variable id.
  kMemWrite,     ///< obj = variable id.
  kLockAcquire,  ///< obj = lock id.
  kLockRelease,  ///< obj = lock id.
  kThreadFork,   ///< emitted by parent; obj = child tid.
  kThreadJoin,   ///< emitted by parent; obj = child tid.
  kBarrier,      ///< obj = barrier instance id; aux = number of participants.
  kMsgSend,      ///< obj = message id (cross-rank HB edge source).
  kMsgRecv,      ///< obj = message id (cross-rank HB edge sink).
  kMpiCall,      ///< logged MPI call; detail in MpiCallInfo.
  kRegionBegin,  ///< OpenMP parallel region entry (informational).
  kRegionEnd,    ///< OpenMP parallel region exit (informational).
};

inline constexpr int kEventKindCount =
    static_cast<int>(EventKind::kRegionEnd) + 1;

const char* event_kind_name(EventKind kind);

/// Arguments recorded for one MPI call (the paper's "execution log" entry).
struct MpiCallInfo {
  MpiCallType type = MpiCallType::kOther;
  int peer = -1;                ///< source or destination rank, -1 if n/a.
  int tag = -1;                 ///< -1 if n/a; MPI_ANY_TAG recorded as -2.
  std::uint64_t comm = 0;       ///< communicator id, 0 if n/a.
  std::uint64_t request = 0;    ///< request id for Isend/Irecv/Wait/Test.
  bool on_main_thread = false;  ///< true if issued by the rank's master thread.
  std::uint8_t provided = 0;    ///< rank's thread level after the call
                                ///< (simmpi::ThreadLevel numeric value).
  std::uint32_t callsite = 0;   ///< interned callsite label (see TraceLog).
};

struct Event {
  Seq seq = 0;
  Tid tid = kNoTid;
  int rank = kNoRank;
  EventKind kind = EventKind::kMemRead;
  ObjId obj = 0;
  std::uint64_t aux = 0;               ///< kind-specific extra (barrier size...).
  std::vector<ObjId> locks_held;       ///< sorted snapshot at event time.
  std::optional<MpiCallInfo> mpi;      ///< present iff kind == kMpiCall.

  bool is_access() const {
    return kind == EventKind::kMemRead || kind == EventKind::kMemWrite;
  }
  bool is_write() const { return kind == EventKind::kMemWrite; }
};

/// True if e's tid, and the child a kThreadFork or kThreadJoin names, lie in
/// [0, kMaxTid).
inline bool tids_in_range(const Event& e) {
  if (static_cast<std::uint32_t>(e.tid) >= static_cast<std::uint32_t>(kMaxTid)) {
    return false;
  }
  const bool names_child =
      e.kind == EventKind::kThreadFork || e.kind == EventKind::kThreadJoin;
  return !names_child || e.obj < static_cast<ObjId>(kMaxTid);
}

/// True if the two sorted lockset snapshots share no lock.
bool locksets_disjoint(const std::vector<ObjId>& a, const std::vector<ObjId>& b);

std::string event_to_string(const Event& e);

}  // namespace home::trace
