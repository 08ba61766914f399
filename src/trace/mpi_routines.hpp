// The MPI routine table: one row per MPI routine HOME knows, read by every
// layer that sorts MPI calls (DESIGN.md §15).  A row gives the type a call
// is logged as, the classes the six predicates sort it into (Section
// III.A), the monitored variables its wrapper writes, in write order
// (Section IV.B), and the argument positions of its C binding that the
// static analyzers read.  Rows 0 .. kMpiCallTypeCount-1 are one canonical
// row per MpiCallType in enum order, so `routine_of(type)` is an array
// index; the rows after them are routines logged as one of those types.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace home::trace {

/// The type an MPI call is logged as.  Stored traces carry the numeric code,
/// so new values go after the last one only.
enum class MpiCallType : std::uint8_t {
  kInit,
  kInitThread,
  kFinalize,
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWait,
  kTest,
  kProbe,
  kIprobe,
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kScatter,
  kAlltoall,
  kSendrecv,
  kScan,
  kReduceScatter,
  kOther,
  kCommDup,
  kCommSplit,
};

inline constexpr std::size_t kMpiCallTypeCount =
    static_cast<std::size_t>(MpiCallType::kCommSplit) + 1;

/// The per-rank variables an instrumented MPI call WRITEs (object ids in
/// spec/monitored.hpp).
enum class MonitoredVar : std::uint8_t {
  kSrcTmp = 0,
  kTagTmp = 1,
  kCommTmp = 2,
  kRequestTmp = 3,
  kCollectiveTmp = 4,
  kFinalizeTmp = 5,
};

inline constexpr int kMonitoredVarCount = 6;

/// Class bits: how the violation predicates sort a routine's calls.
enum RoutineClass : std::uint8_t {
  kLifecycleClass = 1u << 0,   ///< Init, Init_thread, Finalize.
  kInitClass = 1u << 1,        ///< sets the thread level, known on return.
  kSendClass = 1u << 2,
  kReceiveClass = 1u << 3,
  kProbeClass = 1u << 4,
  kCompletionClass = 1u << 5,  ///< completes a request.
  kCollectiveClass = 1u << 6,  ///< collective over a communicator.
};

/// Up to four monitored variables, in the order the wrapper writes them.
struct VarList {
  std::array<MonitoredVar, 4> items{};
  std::uint8_t size = 0;
};

/// Argument positions in a routine's C binding (-1: none).  A routine with
/// a send and a receive half (MPI_Sendrecv) fills both.
struct ArgPositions {
  std::int8_t dest = -1;      ///< destination of the send half.
  std::int8_t send_tag = -1;
  std::int8_t source = -1;    ///< source of the receive or probe half.
  std::int8_t recv_tag = -1;
  std::int8_t comm = -1;
  std::int8_t request = -1;   ///< the request (or request array) completed.
};

struct MpiRoutine {
  const char* name;
  MpiCallType type;
  std::uint8_t classes;
  VarList written;
  ArgPositions args;

  constexpr bool lifecycle() const { return classes & kLifecycleClass; }
  constexpr bool initializes() const { return classes & kInitClass; }
  constexpr bool sends() const { return classes & kSendClass; }
  constexpr bool receives() const { return classes & kReceiveClass; }
  constexpr bool probes() const { return classes & kProbeClass; }
  constexpr bool completes_request() const { return classes & kCompletionClass; }
  constexpr bool collective() const { return classes & kCollectiveClass; }
  /// The monitored variables a call writes, in write order.
  constexpr std::span<const MonitoredVar> vars() const {
    return {written.items.data(), written.size};
  }
};

namespace routine_rows {

using T = MpiCallType;
using V = MonitoredVar;
using Pos = std::int8_t;

inline constexpr VarList kNone{};
inline constexpr VarList kMessage{{V::kSrcTmp, V::kTagTmp, V::kCommTmp}, 3};
inline constexpr VarList kNonblocking{
    {V::kSrcTmp, V::kTagTmp, V::kCommTmp, V::kRequestTmp}, 4};
inline constexpr VarList kRequest{{V::kRequestTmp}, 1};
inline constexpr VarList kCollective{{V::kCollectiveTmp, V::kCommTmp}, 2};
inline constexpr VarList kFinalize{{V::kFinalizeTmp}, 1};
inline constexpr std::uint8_t kInitRow = kLifecycleClass | kInitClass;

constexpr ArgPositions send(Pos d, Pos t, Pos c) { return {d, t, -1, -1, c}; }
constexpr ArgPositions recv(Pos s, Pos t, Pos c) { return {-1, -1, s, t, c}; }
constexpr ArgPositions comm(Pos c) { return {.comm = c}; }
constexpr ArgPositions request(Pos r) { return {.request = r}; }

}  // namespace routine_rows

// clang-format off
inline constexpr auto kMpiRoutines = [] {
  using namespace routine_rows;
  return std::to_array<MpiRoutine>({
    // name                        logged as          classes            writes        arguments
    {"MPI_Init",                   T::kInit,          kInitRow,          kNone,        {}},
    {"MPI_Init_thread",            T::kInitThread,    kInitRow,          kNone,        {}},
    {"MPI_Finalize",               T::kFinalize,      kLifecycleClass,   kFinalize,    {}},
    {"MPI_Send",                   T::kSend,          kSendClass,        kMessage,     send(3, 4, 5)},
    {"MPI_Recv",                   T::kRecv,          kReceiveClass,     kMessage,     recv(3, 4, 5)},
    {"MPI_Isend",                  T::kIsend,         kSendClass,        kNonblocking, send(3, 4, 5)},
    {"MPI_Irecv",                  T::kIrecv,         kReceiveClass,     kNonblocking, recv(3, 4, 5)},
    {"MPI_Wait",                   T::kWait,          kCompletionClass,  kRequest,     request(0)},
    {"MPI_Test",                   T::kTest,          kCompletionClass,  kRequest,     request(0)},
    {"MPI_Probe",                  T::kProbe,         kProbeClass,       kMessage,     recv(0, 1, 2)},
    {"MPI_Iprobe",                 T::kIprobe,        kProbeClass,       kMessage,     recv(0, 1, 2)},
    {"MPI_Barrier",                T::kBarrier,       kCollectiveClass,  kCollective,  comm(0)},
    {"MPI_Bcast",                  T::kBcast,         kCollectiveClass,  kCollective,  comm(4)},
    {"MPI_Reduce",                 T::kReduce,        kCollectiveClass,  kCollective,  comm(6)},
    {"MPI_Allreduce",              T::kAllreduce,     kCollectiveClass,  kCollective,  comm(5)},
    {"MPI_Gather",                 T::kGather,        kCollectiveClass,  kCollective,  comm(7)},
    {"MPI_Scatter",                T::kScatter,       kCollectiveClass,  kCollective,  comm(7)},
    {"MPI_Alltoall",               T::kAlltoall,      kCollectiveClass,  kCollective,  comm(6)},
    // simmpi reports a Sendrecv as the Irecv, Send and Wait it runs; the
    // kSendrecv records of older traces hold the send half's (dest, tag).
    {"MPI_Sendrecv",               T::kSendrecv,      kSendClass | kReceiveClass, kMessage,
                                   {.dest = 3, .send_tag = 4, .source = 8, .recv_tag = 9, .comm = 10}},
    {"MPI_Scan",                   T::kScan,          kCollectiveClass,  kCollective,  comm(5)},
    {"MPI_Reduce_scatter",         T::kReduceScatter, kCollectiveClass,  kCollective,  comm(5)},
    {"MPI_<other>",                T::kOther,         0,                 kNone,        {}},
    // Collective over the parent communicator; the last argument is the new one.
    {"MPI_Comm_dup",               T::kCommDup,       kCollectiveClass,  kCollective,  comm(0)},
    {"MPI_Comm_split",             T::kCommSplit,     kCollectiveClass,  kCollective,  comm(0)},
    // Routines logged as a type above; a multi-request one once per request.
    {"MPI_Ssend",                  T::kSend,          kSendClass,        kMessage,     send(3, 4, 5)},
    {"MPI_Allgather",              T::kGather,        kCollectiveClass,  kCollective,  comm(6)},
    {"MPI_Gatherv",                T::kGather,        kCollectiveClass,  kCollective,  comm(8)},
    {"MPI_Scatterv",               T::kScatter,       kCollectiveClass,  kCollective,  comm(8)},
    {"MPI_Reduce_scatter_block",   T::kReduceScatter, kCollectiveClass,  kCollective,  comm(5)},
    {"MPI_Waitall",                T::kWait,          kCompletionClass,  kRequest,     request(1)},
    {"MPI_Waitany",                T::kWait,          kCompletionClass,  kRequest,     request(1)},
    {"MPI_Testall",                T::kTest,          kCompletionClass,  kRequest,     request(1)},
  });
}();
// clang-format on

/// The canonical row of a logged type.  `type` must be a valid enumerator;
/// the trace loaders reject codes outside [0, kMpiCallTypeCount).
constexpr const MpiRoutine& routine_of(MpiCallType type) {
  return kMpiRoutines[static_cast<std::size_t>(type)];
}

/// The row of a routine named in source text, "MPI_Recv" or its wrapper
/// "HMPI_Recv"; nullptr for a routine the table does not list.
constexpr const MpiRoutine* find_routine(std::string_view name) {
  if (name.starts_with("HMPI_")) name.remove_prefix(1);
  for (const MpiRoutine& row : kMpiRoutines) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

/// The type the routine named at compile time is logged as: simmpi's entry
/// points name their routine and the table decides.  A name the table does
/// not list does not compile.
consteval MpiCallType logged_as(std::string_view name) {
  return find_routine(name)->type;
}

/// The table's rules: every type below kMpiCallTypeCount, canonical rows in
/// enum order; a row logged as a type is matched like it (same classes and
/// write set); every class has the arguments the static analyzers read; no
/// name twice.
constexpr bool table_is_consistent() {
  for (std::size_t i = 0; i < kMpiRoutines.size(); ++i) {
    const MpiRoutine& row = kMpiRoutines[i];
    if (static_cast<std::size_t>(row.type) >= kMpiCallTypeCount) return false;
    const MpiRoutine& canonical = routine_of(row.type);
    const ArgPositions& a = row.args;
    const bool matches = row.receives() || row.probes();
    if ((i < kMpiCallTypeCount && &canonical != &row) ||
        row.classes != canonical.classes ||
        !std::ranges::equal(row.vars(), canonical.vars()) ||
        (row.sends() && (a.dest < 0 || a.send_tag < 0)) ||
        (matches && (a.source < 0 || a.recv_tag < 0)) ||
        ((row.sends() || matches || row.collective()) && a.comm < 0) ||
        (row.completes_request() && a.request < 0) ||
        find_routine(row.name) != &row) {
      return false;
    }
  }
  return true;
}
static_assert(table_is_consistent());

}  // namespace home::trace
