// Seeded synthetic hybrid trace for the trace_posthoc workload.
//
// Shape: 4 MPI processes of 64 OpenMP threads each (256 threads, so
// vector-clock width matters).  Every rank runs 8 barrier-separated phases,
// sized so one post-mortem analysis takes a few tens of milliseconds.  Every
// fourth phase is a communication phase in which only the rank's main thread
// calls MPI (ring send/recv with cross-rank message edges, then an
// allreduce).  The other phases are compute phases in which every thread
// touches three kinds of application variables: barrier-ordered ones (one
// owner per phase, race-free), lock-protected ones (race-free under the
// hybrid detector) and racy ones.
//
// Compute phases also carry the planted MPI calls: concurrent receives (V3),
// a shared request waited twice (V4), a probe racing a receive (V5),
// concurrent collectives (V6), an off-main call under FUNNELED (V1) and an
// off-main MPI_Finalize (V2), plus critical-guarded receive decoys that
// must stay clean.  The planted violation keys are computed here from the
// plan alone, so the check shares no code with the detector.
//
// The same seed gives the same events in the same order; the workload
// hashes the written trace file to prove it.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_io.hpp"

namespace perfbench {

struct SynthTrace {
  home::trace::LoadedTrace trace;
  /// spec::violation_key of every planted violation.
  std::set<std::string> planted_keys;
  int ranks = 0;
  int threads_per_rank = 0;
};

SynthTrace make_synth_trace(std::uint64_t seed);

/// A thread registry whose tids match the synthetic trace (rank-major, the
/// rank's main thread first), for the streaming analyzer's watermark.
void register_synth_threads(const SynthTrace& synth,
                            home::trace::ThreadRegistry* registry);

}  // namespace perfbench
