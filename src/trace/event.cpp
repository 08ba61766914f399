#include "src/trace/event.hpp"

#include <algorithm>
#include <sstream>

namespace home::trace {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kMemRead: return "MemRead";
    case EventKind::kMemWrite: return "MemWrite";
    case EventKind::kLockAcquire: return "LockAcquire";
    case EventKind::kLockRelease: return "LockRelease";
    case EventKind::kThreadFork: return "ThreadFork";
    case EventKind::kThreadJoin: return "ThreadJoin";
    case EventKind::kBarrier: return "Barrier";
    case EventKind::kMsgSend: return "MsgSend";
    case EventKind::kMsgRecv: return "MsgRecv";
    case EventKind::kMpiCall: return "MpiCall";
    case EventKind::kRegionBegin: return "RegionBegin";
    case EventKind::kRegionEnd: return "RegionEnd";
  }
  return "?";
}

bool locksets_disjoint(const std::vector<ObjId>& a, const std::vector<ObjId>& b) {
  // Both snapshots are sorted; standard merge-scan intersection test.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

std::string event_to_string(const Event& e) {
  // Direct string appends: this renders every context-window line of every
  // certificate, and an ostringstream costs more to construct than the whole
  // line does to format.
  std::string out;
  out.reserve(64);
  out += '#';
  out += std::to_string(e.seq);
  out += " t";
  out += std::to_string(e.tid);
  out += " r";
  out += std::to_string(e.rank);
  out += ' ';
  out += event_kind_name(e.kind);
  out += " obj=";
  out += std::to_string(e.obj);
  if (e.kind == EventKind::kBarrier) {
    out += " size=";
    out += std::to_string(e.aux);
  }
  if (!e.locks_held.empty()) {
    out += " locks={";
    for (std::size_t i = 0; i < e.locks_held.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(e.locks_held[i]);
    }
    out += '}';
  }
  if (e.mpi) {
    out += ' ';
    out += routine_of(e.mpi->type).name;
    out += "(peer=";
    out += std::to_string(e.mpi->peer);
    out += ",tag=";
    out += std::to_string(e.mpi->tag);
    out += ",comm=";
    out += std::to_string(e.mpi->comm);
    out += ",req=";
    out += std::to_string(e.mpi->request);
    if (e.mpi->on_main_thread) out += ",main";
    out += ')';
  }
  return out;
}

}  // namespace home::trace
