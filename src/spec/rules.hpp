// The six thread-safety predicates of Section III.A as pure rule builders,
// shared verbatim by the post-mortem Matcher and the streaming OnlineMatcher.
//
// Both engines decide *when* a rule fires from their own concurrency
// machinery (HbIndex sweeps vs incremental clocks); the rules here own the
// MPI-argument predicates and produce the Violation records, so the two
// engines can never drift apart on what a violation looks like — the
// online-vs-post-mortem key equality (tests/online_equivalence_test.cpp)
// depends on that.
#pragma once

#include <cstddef>
#include <vector>

#include "src/spec/monitored.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/event.hpp"
#include "src/trace/trace_log.hpp"

namespace home::spec::rules {

/// Callsite label of an MPI call event ("" without a table or label).
std::string call_label(const trace::StringTable* strings,
                       const trace::Event& call);

/// Populate the pairwise fields (rank/tids/seqs/callsites) from two calls.
void fill_pair(Violation& v, const trace::Event& c1, const trace::Event& c2,
               const trace::StringTable* strings);

/// The pair rules V3 ConcurrentRecv / V4 ConcurrentRequest / V5 Probe /
/// V6 CollectiveCall for one resolved, concurrent call pair reached through
/// `kind`'s monitored variable.  Preconditions: both events carry mpi info
/// and c1.tid != c2.tid.  Appends the matched violations (srctmp can match
/// both V3 and V5) and returns how many were appended.
std::size_t match_call_pair(MonitoredVar kind, const trace::Event& c1,
                            const trace::Event& c2,
                            const trace::StringTable* strings,
                            std::vector<Violation>* out);

// --- V1 Initialization builders -------------------------------------------
Violation single_with_parallel_region(int rank, bool used_init_thread);
Violation funneled_off_main(const trace::Event& call,
                            const trace::StringTable* strings);
Violation serialized_concurrent(int rank, MonitoredVar kind, trace::Tid tid1,
                                trace::Tid tid2);

// --- V2 Finalization builders ---------------------------------------------
Violation finalize_off_main(const trace::Event& fin,
                            const trace::StringTable* strings);
/// Same thread, program order: `call.seq > fin.seq`.
Violation call_after_finalize(const trace::Event& fin, const trace::Event& call,
                              const trace::StringTable* strings);
/// Another thread's call concurrent with (or after) the finalize.
Violation finalize_unordered(const trace::Event& fin, const trace::Event& call,
                             const trace::StringTable* strings);

}  // namespace home::spec::rules
