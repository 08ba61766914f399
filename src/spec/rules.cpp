#include "src/spec/rules.hpp"

#include <sstream>

#include "src/simmpi/types.hpp"
#include "src/spec/matcher.hpp"

namespace home::spec::rules {

using trace::Event;
using trace::MpiCallType;

bool carries_call_pairs(MonitoredVar kind) {
  return kind == MonitoredVar::kSrcTmp || kind == MonitoredVar::kRequestTmp ||
         kind == MonitoredVar::kCollectiveTmp;
}

std::string call_label(const trace::StringTable* strings, const Event& call) {
  if (!strings || !call.mpi || call.mpi->callsite == 0) return "";
  return strings->lookup(call.mpi->callsite);
}

void fill_pair(Violation& v, const Event& c1, const Event& c2,
               const trace::StringTable* strings) {
  v.rank = c1.rank;
  v.tid1 = c1.tid;
  v.tid2 = c2.tid;
  v.call1 = c1.seq;
  v.call2 = c2.seq;
  v.callsite1 = call_label(strings, c1);
  v.callsite2 = call_label(strings, c2);
}

std::size_t match_call_pair(MonitoredVar kind, const Event& c1, const Event& c2,
                            const trace::StringTable* strings,
                            std::vector<Violation>* out) {
  const trace::MpiCallInfo& m1 = *c1.mpi;
  const trace::MpiCallInfo& m2 = *c2.mpi;
  const trace::MpiRoutine& r1 = trace::routine_of(m1.type);
  const trace::MpiRoutine& r2 = trace::routine_of(m2.type);
  std::size_t added = 0;

  if (kind == MonitoredVar::kSrcTmp) {
    // V3: both receives, same (source, tag, comm).
    if (r1.receives() && r2.receives() && m1.comm == m2.comm &&
        args_overlap(m1.peer, m2.peer) && args_overlap(m1.tag, m2.tag)) {
      Violation v;
      v.type = ViolationType::kConcurrentRecv;
      fill_pair(v, c1, c2, strings);
      v.comm = m1.comm;
      std::ostringstream os;
      os << "two threads receive with source=" << m1.peer << " tag=" << m1.tag
         << " comm=" << m1.comm
         << "; message-to-thread matching is undefined";
      v.detail = os.str();
      out->push_back(std::move(v));
      ++added;
    }
    // V5: a probe concurrent with a probe or receive, same (source, tag)
    // on the same communicator.
    const bool p1 = r1.probes();
    const bool p2 = r2.probes();
    if ((p1 || p2) && (p1 ? (p2 || r2.receives()) : r1.receives()) &&
        m1.comm == m2.comm && args_overlap(m1.peer, m2.peer) &&
        args_overlap(m1.tag, m2.tag)) {
      Violation v;
      v.type = ViolationType::kProbe;
      fill_pair(v, c1, c2, strings);
      v.comm = m1.comm;
      std::ostringstream os;
      os << r1.name << " and " << r2.name << " race on source=" << m1.peer
         << " tag=" << m1.tag << " comm=" << m1.comm;
      v.detail = os.str();
      out->push_back(std::move(v));
      ++added;
    }
  } else if (kind == MonitoredVar::kRequestTmp) {
    // V4: both Wait/Test on the same request object.
    if (r1.completes_request() && r2.completes_request() &&
        m1.request == m2.request && m1.request != 0) {
      Violation v;
      v.type = ViolationType::kConcurrentRequest;
      fill_pair(v, c1, c2, strings);
      v.request = m1.request;
      std::ostringstream os;
      os << r1.name << " and " << r2.name << " complete the same request "
         << m1.request;
      v.detail = os.str();
      out->push_back(std::move(v));
      ++added;
    }
  } else if (kind == MonitoredVar::kCollectiveTmp) {
    // V6: two concurrent collectives on the same communicator.
    if (r1.collective() && r2.collective() && m1.comm == m2.comm) {
      Violation v;
      v.type = ViolationType::kCollectiveCall;
      fill_pair(v, c1, c2, strings);
      v.comm = m1.comm;
      std::ostringstream os;
      os << r1.name << " and " << r2.name << " concurrently use comm "
         << m1.comm;
      v.detail = os.str();
      out->push_back(std::move(v));
      ++added;
    }
  }
  return added;
}

Violation single_with_parallel_region(int rank, bool used_init_thread) {
  Violation v;
  v.type = ViolationType::kInitialization;
  v.rank = rank;
  std::ostringstream os;
  os << "provided level is MPI_THREAD_SINGLE"
     << (used_init_thread ? "" : " (plain MPI_Init)")
     << " but the rank opens an OpenMP parallel region";
  v.detail = os.str();
  return v;
}

Violation funneled_off_main(const Event& call,
                            const trace::StringTable* strings) {
  Violation v;
  v.type = ViolationType::kInitialization;
  v.rank = call.rank;
  v.tid1 = call.tid;
  v.call1 = call.seq;
  v.callsite1 = call_label(strings, call);
  v.detail = std::string(trace::routine_of(call.mpi->type).name) +
             " issued off the main thread under MPI_THREAD_FUNNELED";
  return v;
}

Violation serialized_concurrent(int rank, MonitoredVar kind, trace::Tid tid1,
                                trace::Tid tid2) {
  Violation v;
  v.type = ViolationType::kInitialization;
  v.rank = rank;
  v.tid1 = tid1;
  v.tid2 = tid2;
  v.detail = std::string("concurrent MPI calls (") + monitored_var_name(kind) +
             ") under MPI_THREAD_SERIALIZED";
  return v;
}

Violation finalize_off_main(const Event& fin,
                            const trace::StringTable* strings) {
  Violation v;
  v.type = ViolationType::kFinalization;
  v.rank = fin.rank;
  v.tid1 = fin.tid;
  v.call1 = fin.seq;
  v.callsite1 = call_label(strings, fin);
  v.detail = "MPI_Finalize called off the main thread";
  return v;
}

Violation call_after_finalize(const Event& fin, const Event& call,
                              const trace::StringTable* strings) {
  Violation v;
  v.type = ViolationType::kFinalization;
  fill_pair(v, fin, call, strings);
  v.detail = std::string(trace::routine_of(call.mpi->type).name) +
             " issued after MPI_Finalize";
  return v;
}

Violation finalize_unordered(const Event& fin, const Event& call,
                             const trace::StringTable* strings) {
  Violation v;
  v.type = ViolationType::kFinalization;
  fill_pair(v, fin, call, strings);
  v.detail = std::string(trace::routine_of(call.mpi->type).name) +
             " on another thread is not ordered before MPI_Finalize";
  return v;
}

}  // namespace home::spec::rules
