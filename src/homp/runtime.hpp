// homp — the OpenMP-style runtime that plays the role of
// "OpenMP + Intel Pin binary instrumentation" from the paper.
//
// homp::parallel forks a team of threads from the process's thread pool
// (util/thread_pool.hpp; the caller is thread 0, the master, exactly like
// OpenMP, and back-to-back regions reuse the same workers), propagates the
// simmpi rank context and the run context (util/run_context.hpp) so MPI
// calls made by workers are attributed to the right "process" and run, and
// — when the run context carries instrumentation sinks (a tool session's
// attach() puts them on the Universe; homp used without one binds them on
// the calling thread) — natively emits the event stream Pin probes would
// produce: thread fork/join, barriers, lock acquire/release.
//
// The directive surface mirrors the constructs the paper's benchmarks use:
//   parallel / for (static & dynamic) / sections / single / master /
//   critical (named) / barrier / locks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"

namespace home::homp {

/// #pragma omp parallel num_threads(n): `body` runs on n threads; the calling
/// thread participates as thread 0. Nested regions are supported.
void parallel(int nthreads, const std::function<void()>& body);

/// omp_get_thread_num / omp_get_num_threads / omp_in_parallel.
int thread_num();
int num_threads();
bool in_parallel();

/// #pragma omp barrier for the innermost enclosing team (no-op outside).
void barrier();

/// Process-wide default team size (omp_set_num_threads).  parallel() with
/// nthreads <= 0 uses the run context's team size when it sets one, else
/// this default; default_threads() reports the size that applies.
void set_default_threads(int nthreads);
int default_threads();

namespace internal {

/// The innermost team of the calling thread; nullptr outside parallel.
class Team;
Team* current_team();

/// Per-construct counters used by worksharing (single, sections). Each team
/// numbers the worksharing constructs each thread encounters in program
/// order; construct k maps to the team-wide slot k.
std::uint64_t next_construct_index();

/// Emit helpers into the run context's log, stamping the calling thread's
/// tid and rank (no-ops when the run is uninstrumented).
void emit_event(trace::Event e);
void emit_plain(trace::EventKind kind, trace::ObjId obj, std::uint64_t aux = 0);

/// Team barrier with event emission, usable from worksharing constructs.
void team_barrier(Team* team);

}  // namespace internal

}  // namespace home::homp
