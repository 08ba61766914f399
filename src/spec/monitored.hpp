// Monitored variables — the paper's central device.
//
// HOME does not trace application memory.  Instead every instrumented MPI
// call WRITEs a handful of per-rank variables (srctmp, tagtmp, commtmp,
// requesttmp, collectivetmp, finalizetmp); the dynamic race analysis runs on
// *those*, and a concurrency verdict on a monitored variable means "two MPI
// calls of this class can execute concurrently in this rank".
#pragma once

#include <cstddef>
#include <iterator>
#include <span>

#include "src/trace/event.hpp"

namespace home::spec {

using trace::kMonitoredVarCount;
using trace::MonitoredVar;

constexpr const char* monitored_var_name(MonitoredVar var) {
  constexpr const char* kNames[kMonitoredVarCount] = {
      "srctmp", "tagtmp", "commtmp", "requesttmp", "collectivetmp", "finalizetmp"};
  const auto i = static_cast<std::size_t>(var);
  return i < std::size(kNames) ? kNames[i] : "?";
}

/// Monitored-variable ObjIds live in a reserved range so they can never
/// collide with lock ids or traced application addresses.
inline constexpr trace::ObjId kMonitoredBase = 0x4D00000000ULL;

constexpr trace::ObjId monitored_var_id(int rank, MonitoredVar var) {
  return kMonitoredBase +
         static_cast<trace::ObjId>(rank) * 16 + static_cast<trace::ObjId>(var);
}

constexpr bool is_monitored_var(trace::ObjId id) {
  return id >= kMonitoredBase;
}

constexpr int monitored_var_rank(trace::ObjId id) {
  return static_cast<int>((id - kMonitoredBase) / 16);
}

constexpr MonitoredVar monitored_var_kind(trace::ObjId id) {
  return static_cast<MonitoredVar>((id - kMonitoredBase) % 16);
}

/// Which monitored variables an MPI call of the given type WRITEs, in write
/// order (the wrapper bodies of Section IV.B; trace/mpi_routines.hpp).
constexpr std::span<const MonitoredVar> monitored_vars_for(
    trace::MpiCallType type) {
  return trace::routine_of(type).vars();
}

}  // namespace home::spec
